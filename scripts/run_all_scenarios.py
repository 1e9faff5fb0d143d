#!/usr/bin/env python3
"""Reproduce the three headline scenarios plus the sweeps and the
worst-case product search, writing everything under ./out/.

The flip sweep over the packet centre x0 tabulates the definitional
contrast: the RMS position disturbance eta_o_X is 2*sqrt(x0^2 + sigma^2),
while the distribution distance w2_disturbance_X is 2*|x0|, so at x0 = 0
the flip moves every amplitude yet leaves the position distribution fixed."""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from edlab.cli import main  # noqa: E402

OUT = os.path.join(os.path.dirname(__file__), "..", "out")


def run(args):
    print(f"\n$ edlab {' '.join(args)}")
    code = main(args)
    if code != 0:
        raise SystemExit(code)


def main_script():
    os.makedirs(OUT, exist_ok=True)
    run(["scenario", "flip", "--out", f"{OUT}/flip.csv"])
    run(["scenario", "slit", "--out", f"{OUT}/slit.csv"])
    run(["scenario", "vonneumann", "--out", f"{OUT}/vonneumann.csv"])
    run(
        [
            "sweep",
            "--axis",
            "probe.s",
            "--values",
            "0.1,0.25,0.5,1.0",
            "--out",
            f"{OUT}/sweep_pointer_width.csv",
        ]
    )
    run(
        [
            "sweep",
            "--axis",
            "channel.g",
            "--values",
            "0.5,1,2",
            "--out",
            f"{OUT}/sweep_gain.csv",
        ]
    )
    run(
        [
            "sweep",
            "--axis",
            "channel.width",
            "--values",
            "1,2,4",
            "--set",
            "scenario=slit",
            "--out",
            f"{OUT}/sweep_slit_width.csv",
        ]
    )
    run(
        [
            "sweep",
            "--axis",
            "state.x0",
            "--values",
            "0,0.25,0.5,1,2,4",
            "--set",
            "scenario=flip",
            "--out",
            f"{OUT}/flip_contrast.csv",
        ]
    )
    run(["eq2", "--out-dir", f"{OUT}/eq2"])
    print(f"\nall outputs in {os.path.abspath(OUT)}")


if __name__ == "__main__":
    main_script()
