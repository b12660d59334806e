"""Landweber-Kaczmarz iterative regularization with inexact inner solves.

Banach-space-flavored Landweber-Kaczmarz iterations over convex penalties,
where each outer step recovers the primal iterate from the dual variable
through an inexact proximal subproblem with a certified accuracy (an
eps-subgradient certificate from a primal-dual duality gap).  Ships with a
TV-denoising inner solver, parallel-beam tomography and elliptic-coefficient
forward problems, and a reproducible experiment harness.  Each name is
imported from its module, such as `lkreg.harness`; the version lives in
pyproject.toml.
"""
