"""The benchmark's workloads: which experiment each runs and why.

Every workload is one configured `lkreg` experiment, run through
`harness.run_experiment` exactly as `lkreg run` runs it.  The workload seed
becomes the config's noise seed, so the only seeded input is the data noise;
`custom-kaczmarz` also has a matrix and a truth file, which `bench.py` writes
in a child process of their own before the measuring worker starts.

Why these four:

* ``ct-desk`` -- the shipped preset, unchanged, run to its discrepancy stop.
  It is the CT run users start first.  Nearly all of its solve is PDHG and
  TV on 64 x 64 arrays, where per-call overhead and allocation dominate.
* ``ct-paper-slice`` -- the 256 x 256 ``ct-paper`` preset cut off after
  four outer steps.  Same layers at 16 times the grid size, where arithmetic
  dominates; the only workload whose set-up is dominated by the ray tracer.
  Four steps (about 1,200 inner iterations) keep several repetitions inside
  one run; the first steps are the most expensive ones of the preset.
* ``pde-paper-slice`` -- the ``pde-paper`` preset (100 x 100 mesh, mu = 20,
  noisy data) cut off after 20 steps.  The only workload that exercises the
  elliptic layer (one sparse factorization per step) and PDHG's mu != 1
  normal-form path.
* ``custom-kaczmarz`` -- a ``custom-linear`` problem read from text files:
  the ct-desk geometry and phantom, quadratic penalty with the nonnegativity
  constraint, 30 Kaczmarz blocks, 0.1 % noise, run to its discrepancy stop
  (about 7,700 cheap steps).  It bypasses PDHG and TV entirely, so every
  inner-solver change should predict no change here; it stresses the text
  loader, small block products, per-step engine overhead and the writers.
"""

import os
import sys

WORKLOADS = {
    "ct-desk": {
        "preset": "ct-desk",
        "overrides": {},
        "expect": "discrepancy",
    },
    "ct-paper-slice": {
        "preset": "ct-paper",
        "overrides": {"n_max": 4},
        "expect": "cap",
    },
    "pde-paper-slice": {
        "preset": "pde-paper",
        "overrides": {"n_max": 20},
        "expect": "cap",
    },
    "custom-kaczmarz": {
        "preset": None,
        "overrides": {
            "problem": "custom-linear", "penalty": "quadratic", "constraint": "nonneg",
            "mu": 1.0, "n_blocks": 30, "noise_rel": 0.001, "n_max": 20000,
        },
        "expect": "discrepancy",
        # geometry of the matrix file: the ct-desk scan (64 x 64, 30 angles)
        "inputs": {"ct_q": 64, "ct_angles": 30, "ct_angle_step": 6.0},
    },
}


def input_keys(workload, work_dir):
    """The config keys naming a workload's input files in `work_dir`.

    Only `custom-kaczmarz` has input files: a CT system matrix in the
    `save_matrix_coo` text format and the phantom in the `save_grid` format.
    """
    if WORKLOADS[workload].get("inputs") is None:
        return {}
    return {"matrix_path": os.path.join(work_dir, "matrix.txt"),
            "truth_path": os.path.join(work_dir, "truth.txt")}


def write_inputs(workload, work_dir):
    """Write the files `input_keys` names."""
    from lkreg import harness, tomo

    spec = WORKLOADS[workload]["inputs"]
    keys = input_keys(workload, work_dir)
    geom_cfg = harness.make_config(problem="ct", **spec)
    tomo.save_matrix_coo(keys["matrix_path"],
                         tomo.build_parallel_tomo(harness.ct_geometry(geom_cfg)))
    harness.save_grid(keys["truth_path"], tomo.shepp_logan(spec["ct_q"]))


if __name__ == "__main__":
    # python3 benchmarks/workloads.py WORKLOAD WORK_DIR, with lkreg importable
    write_inputs(*sys.argv[1:])
