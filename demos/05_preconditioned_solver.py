"""A constant-factor sketch is a great least-squares preconditioner.

The sketch's small Gram factor W = V diag(1/sigma) pulls the condition number
of A W down to the square root of its spectral grade, so conjugate gradients
on A W converges in a handful of iterations even when the data matrix is
pathologically conditioned.

Run:  python3 demos/05_preconditioned_solver.py
"""

import numpy as np

from rowsketch import (SketchConfig, SparseRowMatrix, precondition_solve,
                       repeated_halving)
from rowsketch.pipelines import (normal_equations_cg,
                                 normal_equations_gradient_descent)

rng = np.random.default_rng(21)
n, d = 4096, 16
u, _ = np.linalg.qr(rng.standard_normal((n, d)))
v, _ = np.linalg.qr(rng.standard_normal((d, d)))
dense = u @ np.diag(np.logspace(0, 6, d)) @ v.T   # condition number 1e6
A = SparseRowMatrix.from_dense(dense)
x_star = rng.standard_normal(d)
b = dense @ x_star

print(f"least squares on a {n} x {d} matrix with condition number 1e6")
print(f"target: relative normal-equation residual <= 1e-8\n")

sketch = repeated_halving(A, SketchConfig(seed=4))
print(f"sketch: {sketch.rows_kept} rows (spectral grade {sketch.check_lambda:.1f})\n")

pre = precondition_solve(A, b, sketch, tol=1e-8, max_iters=200)
print(f"sketch-preconditioned CG : {pre.iterations:>5} iterations, "
      f"residual {pre.relative_residual:.1e}, "
      f"x error {np.linalg.norm(pre.x - x_star) / np.linalg.norm(x_star):.1e}")

plain = normal_equations_cg(A, b, tol=1e-8, max_iters=1500)
print(f"plain CG                 : {plain.iterations:>5} iterations, "
      f"residual {plain.relative_residual:.1e}")

naive = normal_equations_gradient_descent(A, b, tol=1e-8, max_iters=1500)
print(f"gradient iteration       : {naive.iterations:>5} iterations, "
      f"residual {naive.relative_residual:.1e}"
      + ("  (never converged)" if not naive.converged else ""))
