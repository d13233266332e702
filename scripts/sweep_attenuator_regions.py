#!/usr/bin/env python3
"""Map the classification regions of attenuator (x) identity channels.

Sweeps the attenuation cos(theta) and the thermal noise n_th over a grid,
classifies each channel, and emits one CSV row per grid point.  The sweep
traces how the steering-annihilating / steering-breaking / unsteerable
regions nest as noise increases.

Usage: python scripts/sweep_attenuator_regions.py [--grid 15]
"""

import argparse
import csv
import sys

import numpy as np

from gauss_steer.channels import (
    attenuator,
    classify,
    tensor_with_identity,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--grid", type=int, default=15, help="points per axis")
    args = parser.parse_args()

    writer = csv.writer(sys.stdout)
    writer.writerow(
        [
            "cos_theta",
            "n_th",
            "unsteerable",
            "sa_sufficient",
            "steering_annihilating",
            "maximal_unsteerable",
            "steering_breaking",
        ]
    )
    for cos_theta in np.linspace(0.0, 1.0, args.grid):
        for n_th in np.linspace(1.0, 3.0, args.grid):
            channel = tensor_with_identity(
                attenuator(float(np.arccos(cos_theta)), float(n_th)), 1, side="B"
            )
            report = classify(channel)
            writer.writerow(
                [
                    f"{cos_theta:.4f}",
                    f"{n_th:.4f}",
                    int(report.unsteerable),
                    int(report.sa_sufficient),
                    report.steering_annihilating.state.value,
                    report.maximal_unsteerable.state.value,
                    int(report.steering_breaking),
                ]
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
