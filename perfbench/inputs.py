"""Turn a workload's generated input spec into the objects `dlh` receives.

This is the part of a run that counts as set-up: it imports the package and
builds the loops, configurations and grids from plain JSON data. The
benchmark runs :func:`build` in fresh interpreters to time set-up, and once
in its own process to get the inputs it then hands to the timed tasks.
"""

from __future__ import annotations

import json
import sys
import time


def config_from_spec(spec: dict):
    from dlh.params import PhysicalConfig

    return PhysicalConfig(**spec)


def box_from_spec(spec: dict):
    from dlh.holonomy import box_loop

    return box_loop(spec["kind"], spec["ey"], spec["lam"], spec["b"])


def build(workload: str, spec: dict) -> dict:
    """Import the package and build the inputs of one workload from its spec."""
    if workload == "cli_batch":
        import dlh.cli  # noqa: F401  (the CLI receives argv strings only)

        return {}
    import numpy as np
    from dlh.holonomy import ParameterPath
    from dlh.oracle import Grid2D
    from dlh.params import derive_scales

    if workload == "holonomy_refine":
        return {
            "u": derive_scales(config_from_spec(spec["config"])).u,
            "box": [box_from_spec(b) for b in spec["box"]],
            "rotating": [ParameterPath(np.array(v)) for v in spec["rotating"]],
        }
    if workload == "oracle_grid":
        return {
            "grid": Grid2D(**spec["grid"]),
            "wilson_config": config_from_spec(spec["wilson"]["config"]),
            "wilson_loop": box_from_spec(spec["wilson"]),
            "fd_config": config_from_spec(spec["fd"]["config"]),
            "fd_point": tuple(spec["fd"]["point"]),
        }
    raise ValueError(f"unknown workload {workload!r}")


if __name__ == "__main__":
    # python inputs.py WORKLOAD SPEC_FILE: build, then print the monotonic clock
    name, spec_file = sys.argv[1], sys.argv[2]
    with open(spec_file) as fh:
        build(name, json.load(fh))
    print(repr(time.monotonic()))
