"""The three benchmark workloads and their correctness checks.

Each workload is a closed loop with one client: the next request goes out
only after the previous one completes.  A workload turns a generated input
into its argument (``prepare``, untimed), serves it (``execute``, timed) and
checks the result (``check``, untimed).  Every call into the library goes
through a module attribute at call time, so a traced run sees it.

The library is called with default arguments only, and verdicts are read
only through ``.state.value``, ``.value`` and ``.witness``.
"""

import contextlib
import io
import json
import os
import subprocess
import sys

import numpy as np

import gauss_steer
from gauss_steer import channels, cli, errors, jsonio, quantifier, superchannels
from gauss_steer.symplectic import ModePartition

# A VIOLATED witness must re-score to its reported value within this.
WITNESS_TOL = 1e-10
# A HOLDS condition is refuted by the grid only below this (acceptance
# criterion 6 of the test suite).
GRID_FLOOR = -1e-7
GRID_RESOLUTION = 100000
GRID_MAX_DIM = 8


def span(tracer, group):
    return contextlib.nullcontext() if tracer is None else tracer.span(group)


def cli_exit_code(exc):
    """Exit code the CLI gives for ``exc``; None for an exception it does not map."""
    if isinstance(exc, (errors.InvalidChannelError, errors.InvalidSuperchannelError)):
        return 2
    if isinstance(exc, (ValueError, OSError, errors.GaussSteerError)):
        return 1
    return None


class Checks:
    """Verdict checks shared by the workloads; grid checks are deferred to the run's end."""

    def __init__(self):
        self.grid = []

    def verdict(self, request, state, value, witness, conds):
        """Check one verdict against the conditions it may come from."""
        if state == "VIOLATED":
            if witness is None or not value < 0.0:
                return False
            scores = [quantifier.evaluate(c, witness) for c in conds]
            return any(abs(s - value) <= WITNESS_TOL and s < 0.0 for s in scores)
        if state == "HOLDS":
            for cond in conds:
                if cond.dim <= GRID_MAX_DIM:
                    self.grid.append((request, cond))
        return True

    def run_grid(self):
        """Request indices whose HOLDS condition the grid refutes."""
        failed = set()
        for request, cond in self.grid:
            w = quantifier.falsify_grid(cond, GRID_RESOLUTION)
            if w is not None and quantifier.evaluate(cond, w) < GRID_FLOOR:
                failed.add(request)
        return failed


def _channel(part, k, mm, d=None):
    return channels.GaussianChannel(ModePartition(*part), k, mm, d)


def _superchannel(data):
    return superchannels.GaussianSuperchannel(
        ModePartition(1, 1), data["A"], data["E"], data["Y"], data.get("nu")
    )


def _unpack_witness(flat):
    if flat is None:
        return None
    flat = np.asarray(flat, dtype=float)
    return flat[0::2] + 1j * flat[1::2]


class Workload:
    """Request kinds in round-robin order, requests per round, batch size, and defaults.

    A run serves whole rounds, so every run has the same mix of inputs.
    """

    kinds = ()
    round = 1
    batch = 1

    def expect_error(self, kind):
        return False

    def rejected_cleanly(self, kind, exc):
        """True if ``exc`` is the expected rejection of a malformed input."""
        return self.expect_error(kind) and cli_exit_code(exc) is not None


class Sweep(Workload):
    """In-process ``gauss_steer.classify`` over three interleaved input families.

    region:  attenuator on A (x) identity on B over cos(theta) in [0, 1] and
             n_th in [1, 3], with the pure-loss boundary; both verdict sides.
    certify: random CP channels on (1,1), (1,2), (2,2) whose quantified
             conditions hold, the solver's slow path.
    refute:  constant channels onto steerable pure states on the same
             partitions, whose quantified conditions are violated, the fast
             path.  Reported apart from certify so a solver change that
             speeds one side and slows the other shows.
    """

    kinds = ("region", "certify", "refute")
    # The kinds over the three partitions: each kind's median then sits at
    # the same rank within the same partition's cluster on every run.
    round = 9
    batch = 24

    def __init__(self, checks):
        self.checks = checks

    def prepare(self, kind, data):
        return _channel(data["part"], data["K"], data["M"])

    def execute(self, kind, channel, tracer):
        return gauss_steer.classify(channel)

    def check(self, request, kind, data, channel, report):
        ok = True
        pairs = (
            (report.steering_annihilating, channels.sa_condition(channel)),
            (report.maximal_unsteerable, channels.mus_condition(channel)),
        )
        for verdict, cond in pairs:
            state = verdict.state.value
            ok &= self.checks.verdict(request, state, verdict.value, verdict.witness, [cond])
            if kind == "refute":
                # Constant channel: both verdicts are VIOLATED exactly when the
                # target's cm + i omega_hat is not PSD.
                ok &= (state == "VIOLATED") == (data["lam"] < 0.0)
        return ok

    def warmup(self, stream):
        kind, data = stream.take(1)[0]
        gauss_steer.classify(self.prepare(kind, data))


class Ingest(Workload):
    """In-process screening of JSON documents, about one in ten malformed.

    A channel goes through loads_strict, channel_from_dict and the four PSD
    certificates, and its evidence is emitted as JSON; a superchannel
    through superchannel_from_dict, is_valid_superchannel and us_check.
    jsonio and symplectic do nearly all the work and quantifier none: the
    no-change control for solver work and the target for validator caching.
    """

    kinds = ("channel", "superchannel", "malformed")
    # One malformed document per round.
    round = 10
    batch = 200

    def prepare(self, kind, data):
        return data["text"]

    def execute(self, kind, text, tracer):
        obj = jsonio.loads_strict(text)
        if kind == "superchannel":
            sc = jsonio.superchannel_from_dict(obj)
            if not superchannels.is_valid_superchannel(sc):
                raise errors.InvalidSuperchannelError("inadmissible superchannel")
            psd, residual = superchannels.us_check(sc)
            with span(tracer, "jsonio.emit"):
                json.dumps(
                    {"psd": jsonio.psd_check_to_dict(psd), "orthogonality_residual": residual},
                    sort_keys=True,
                )
            return sc
        chan = jsonio.channel_from_dict(obj)
        evidence = {
            "cp_valid": channels.cp_check(chan),
            "unsteerable": channels.unsteerable_check(chan),
            "sa_sufficient": channels.sa_sufficient_check(chan),
            "steering_breaking": channels.steering_breaking_check(chan),
        }
        with span(tracer, "jsonio.emit"):
            json.dumps(
                {name: jsonio.psd_check_to_dict(c) for name, c in evidence.items()},
                sort_keys=True,
            )
        return chan

    def check(self, request, kind, data, arg, result):
        if kind == "channel":
            return np.array_equal(result.K, data["K"]) and np.array_equal(result.M, data["M"])
        return all(np.array_equal(getattr(result, x), data[x]) for x in ("A", "E", "Y"))

    def expect_error(self, kind):
        return kind == "malformed"

    def warmup(self, stream):
        for kind, data in stream.take(len(self.kinds) * 4):
            try:
                self.execute(kind, data["text"], None)
            except (ValueError, errors.GaussSteerError):
                pass


class Cli(Workload):
    """``python -m gauss_steer.cli`` as a subprocess, one request at a time.

    Round-robin over classify on a channel file, super on a superchannel
    file and repro-paper --json: what a CLI user pays per call, interpreter
    start and import included.  The traced run serves the same requests
    in-process through ``cli.main`` so the layers inside become visible.
    """

    kinds = ("classify", "super", "repro")
    round = 3
    batch = 3

    def __init__(self, checks, root, workdir, env, in_process):
        self.checks = checks
        self.root, self.workdir, self.env = root, workdir, env
        self.in_process = in_process
        self.files = 0
        self.replay = None

    def prepare(self, kind, data):
        if kind == "repro":
            return ["repro-paper", "--json"]
        self.files += 1
        path = os.path.join(self.workdir, f"{kind}-{self.files}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(data["text"])
        return [kind, path]

    def spawn(self, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "gauss_steer.cli", *argv],
            cwd=self.root,
            env=self.env,
            capture_output=True,
            timeout=120,
        )
        return proc.returncode, proc.stdout

    def execute(self, kind, argv, tracer):
        if not self.in_process:
            return self.spawn(argv)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), span(tracer, "cli.main"):
            code = cli.main(list(argv))
        return code, buf.getvalue().encode()

    def check(self, request, kind, data, argv, result):
        code, out = result
        if code != 0:
            return False
        envelope = json.loads(out)
        if self.replay is None:
            self.replay = (request, argv, out)
        if kind == "repro":
            return envelope["all_pass"] is True
        if kind == "classify":
            chan = _channel((1, 1), data["K"], data["M"], data["d"])
            pairs = (
                ("steering_annihilating", [channels.sa_condition(chan)]),
                ("maximal_unsteerable", [channels.mus_condition(chan)]),
            )
            verdicts = envelope["report"]
        else:
            sc = _superchannel(data)
            pre, post = superchannels.decompose(sc)
            pairs = (
                ("mus_sufficient", list(superchannels.mus_conditions(sc))),
                ("chain_mus", [channels.mus_condition(pre), channels.mus_condition(post)]),
            )
            verdicts = envelope["verdicts"]
        ok = True
        for key, conds in pairs:
            v = verdicts[key]
            ok &= self.checks.verdict(
                request, v["state"], v["value"], _unpack_witness(v["witness"]), conds
            )
        return ok

    def replay_mismatch(self):
        """Serve the first checked request again as a subprocess.

        Returns its request index if stdout is not byte-identical, else None
        (also when no request passed its checks, as those already failed).
        """
        if self.replay is None:
            return None
        request, argv, out = self.replay
        code, again = self.spawn(argv)
        return None if code == 0 and again == out else request

    def warmup(self, stream):
        # Fills __pycache__ before anything is timed.
        self.spawn(["--version"])
        if self.in_process:
            kind, data = stream.take(1)[0]
            self.execute(kind, self.prepare(kind, data), None)
