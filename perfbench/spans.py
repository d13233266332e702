"""Spans around calls into the library's layers, recorded from outside it.

A traced run swaps the public functions listed in ``TARGETS`` for wrappers,
in every ``gauss_steer`` module namespace that refers to them, so calls the
library makes between its own modules are seen too.  Each call becomes a
span: group, start, end, parent span and request id.  Spans stay in memory
and are written out when the run ends.  An untraced run never patches.
"""

import contextlib
import functools
import json
import sys
from time import perf_counter_ns

# Layers are the library's modules.  ``states`` only feeds inputs and
# ``errors`` does no work, so neither is timed.
LAYERS = ("cli", "jsonio", "symplectic", "channels", "superchannels", "quantifier", "repro")


def _verdict_state(args, kwargs, out):
    return out.state.value


def _chain_mode(args, kwargs, out):
    return kwargs.get("mode", args[2] if len(args) > 2 else "US")


# (span group, module, function, tagger).  The group's first dotted part is
# its layer.  A call nested directly inside a span of the same group joins
# that span, so a group's count is its outermost calls.
TARGETS = (
    ("jsonio.parse", "gauss_steer.jsonio", "loads_strict", None),
    ("jsonio.from_dict", "gauss_steer.jsonio", "channel_from_dict", None),
    ("jsonio.from_dict", "gauss_steer.jsonio", "superchannel_from_dict", None),
    ("jsonio.emit", "gauss_steer.jsonio", "report_to_dict", None),
    ("jsonio.emit", "gauss_steer.jsonio", "verdict_to_dict", None),
    ("jsonio.emit", "gauss_steer.jsonio", "psd_check_to_dict", None),
    ("jsonio.emit", "gauss_steer.jsonio", "solver_config_to_dict", None),
    ("symplectic.psd", "gauss_steer.symplectic", "is_psd", None),
    ("channels.classify", "gauss_steer.channels", "classify", None),
    ("channels.check", "gauss_steer.channels", "cp_check", None),
    ("channels.check", "gauss_steer.channels", "unsteerable_check", None),
    ("channels.check", "gauss_steer.channels", "sa_sufficient_check", None),
    ("channels.check", "gauss_steer.channels", "steering_breaking_check", None),
    ("channels.condition", "gauss_steer.channels", "sa_condition", None),
    ("channels.condition", "gauss_steer.channels", "mus_condition", None),
    ("channels.mc_oracle", "gauss_steer.channels", "monte_carlo_sa_oracle", None),
    ("quantifier.decide", "gauss_steer.quantifier", "decide", _verdict_state),
    ("superchannels.validity", "gauss_steer.superchannels", "is_valid_superchannel", None),
    ("superchannels.us", "gauss_steer.superchannels", "us_check", None),
    ("superchannels.us", "gauss_steer.superchannels", "us_sufficient", None),
    ("superchannels.mus", "gauss_steer.superchannels", "mus_sufficient", _verdict_state),
    ("superchannels.chain", "gauss_steer.superchannels", "chain_sufficient", _chain_mode),
    ("repro.suite", "gauss_steer.repro", "run_reference_suite", None),
)

# Span record fields.
ID, PARENT, REQUEST, GROUP, START, END, TAG = range(7)


class Tracer:
    """In-memory span store for one traced phase."""

    def __init__(self):
        self.spans = []
        self._open = []
        self.request = -1

    @contextlib.contextmanager
    def span(self, group, request=None):
        """Span opened by the benchmark itself; ``request`` starts a new request id."""
        if request is not None:
            self.request = request
        rec = self._start(group)
        try:
            yield rec
        except BaseException as exc:
            rec[TAG] = "error:" + type(exc).__name__
            raise
        finally:
            self._finish(rec)

    def _start(self, group):
        parent = self._open[-1][ID] if self._open else -1
        rec = [len(self.spans), parent, self.request, group, perf_counter_ns(), 0, None]
        self.spans.append(rec)
        self._open.append(rec)
        return rec

    def _finish(self, rec):
        rec[END] = perf_counter_ns()
        self._open.pop()

    def call(self, group, tagger, fn, *args, **kwargs):
        # Calls outside any benchmark-opened span (correctness checks, the
        # untraced replay) are not recorded.
        if not self._open or self._open[-1][GROUP] == group:
            return fn(*args, **kwargs)
        rec = self._start(group)
        try:
            out = fn(*args, **kwargs)
            if tagger is not None:
                rec[TAG] = tagger(args, kwargs, out)
            return out
        except BaseException as exc:
            rec[TAG] = "error:" + type(exc).__name__
            raise
        finally:
            self._finish(rec)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


@contextlib.contextmanager
def patched(tracer):
    """Route every TARGETS function through ``tracer`` for the duration."""
    modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "gauss_steer"]
    saved = []
    for group, modname, attr, tagger in TARGETS:
        orig = getattr(sys.modules.get(modname), attr, None)
        if orig is None:
            continue
        wrapper = functools.wraps(orig)(functools.partial(tracer.call, group, tagger, orig))
        for mod in modules:
            for name in [n for n, v in vars(mod).items() if v is orig]:
                saved.append((mod, name, orig))
                setattr(mod, name, wrapper)
    try:
        yield
    finally:
        for mod, name, orig in reversed(saved):
            setattr(mod, name, orig)


def _dur(rec):
    return (rec[END] - rec[START]) * 1e-9


def _mean(values):
    return sum(values) / len(values) if values else None


def layer_metrics(work, requests):
    """Per-layer metrics from the workload's spans ``work``.

    A mean or ratio whose layer the workload never reaches is reported as
    0.0.  Returns ``(metrics, absent)``: name -> value, and the names of
    those means and ratios.
    """

    def group(spans, name, tag=None):
        return [s for s in spans if s[GROUP] == name and (tag is None or s[TAG] == tag)]

    def mean_of(name, scale, tag=None):
        return lambda spans: _mean([_dur(s) * scale for s in group(spans, name, tag)])

    def per_request(name, scale):
        def fn(spans):
            totals = {}
            for s in group(spans, name):
                totals[s[REQUEST]] = totals.get(s[REQUEST], 0.0) + _dur(s)
            return _mean([v * scale for v in totals.values()])

        return fn

    def decide_share(spans):
        classify = {s[ID]: s for s in group(spans, "channels.classify")}
        if not classify:
            return None
        inside = sum(_dur(s) for s in group(spans, "quantifier.decide") if s[PARENT] in classify)
        return inside / sum(_dur(s) for s in classify.values())

    def decided_ratio(spans):
        decisions = group(spans, "quantifier.decide")
        if not decisions:
            return None
        return sum(s[TAG] in ("HOLDS", "VIOLATED") for s in decisions) / len(decisions)

    means = {
        "jsonio.parse_us": mean_of("jsonio.parse", 1e6),
        "jsonio.from_dict_us": mean_of("jsonio.from_dict", 1e6),
        "jsonio.emit_us": per_request("jsonio.emit", 1e6),
        "symplectic.psd_check_us": mean_of("symplectic.psd", 1e6),
        "channels.condition_build_us": mean_of("channels.condition", 1e6),
        "channels.mc_oracle_ms": mean_of("channels.mc_oracle", 1e3),
        "quantifier.decide_holds_ms": mean_of("quantifier.decide", 1e3, "HOLDS"),
        "quantifier.decide_violated_ms": mean_of("quantifier.decide", 1e3, "VIOLATED"),
        "quantifier.decided_ratio": decided_ratio,
        "quantifier.share": decide_share,
        "superchannels.validity_us": mean_of("superchannels.validity", 1e6),
        "superchannels.mus_sufficient_ms": mean_of("superchannels.mus", 1e3),
        "superchannels.chain_mus_ms": mean_of("superchannels.chain", 1e3, "MUS"),
        "repro.suite_s": mean_of("repro.suite", 1.0),
    }
    out, absent = {}, []
    for name, fn in means.items():
        value = fn(work)
        if value is None:
            absent.append(name)
        out[name] = 0.0 if value is None else value

    decisions = group(work, "quantifier.decide")
    parsed = group(work, "jsonio.parse") + group(work, "jsonio.from_dict")
    out["jsonio.rejects"] = sum(s[TAG] is not None and s[TAG].startswith("error:") for s in parsed)
    out["symplectic.psd_checks"] = len(group(work, "symplectic.psd"))
    out["quantifier.decisions"] = len(decisions)
    out["quantifier.undecided"] = sum(s[TAG] == "UNDECIDED" for s in decisions)
    out.update(self_shares(work, requests))
    return out, absent


def self_shares(spans, requests):
    """Share of request time spent in each layer's own code (children excluded)."""
    child_time = {}
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] = child_time.get(s[PARENT], 0.0) + _dur(s)
    own = {layer: 0.0 for layer in LAYERS}
    total = 0.0
    for s in spans:
        layer = s[GROUP].split(".")[0]
        if s[GROUP] == requests:
            total += _dur(s)
        elif layer in own:
            own[layer] += _dur(s) - child_time.get(s[ID], 0.0)
    return {f"{layer}.self_share": (v / total if total else 0.0) for layer, v in own.items()}
