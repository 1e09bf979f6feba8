#!/usr/bin/env python3
"""Measure the per-iteration cost of a non-linear head against the token
count n and fit its growth exponent.

Each size is timed as best-of-k wall time of building a head's context and
solving it (``build_context`` then ``solve_head``, the work of ``run_head``)
at two iteration budgets; their difference divided by the extra iterations
is the cost of one iteration. Problem generation, the perturbation noise
and the attention context drop out. A head forms the n x n Gram matrix
B = (A^T A) o (V V^T), O(n^3), only when its budget repays it
(``dynamics.gram_repays``), so both budgets must sit on one side of that
threshold at every size, or B would be counted as iterations; the script
refuses a budget pair that does not before it times anything. A fit needs
at least two sizes. The default budgets are above it at every default
size: B is formed once per run and drops out, and one iteration is one
product B w in O(n^2) plus a fixed ~0.05 ms of Python and O(n) work, so
the fit approaches 2 only where the product dominates, from n ~ 1024;
over the default sizes it read 1.65 on a 2-vCPU VM.

Example:
    python scripts/cost_scaling.py --sizes 256,512,1024,2048 --repeats 5
"""

import argparse
import time

import numpy as np

import energy_attention as ea
from energy_attention.cli import RunConfig, generate_inputs
from energy_attention.dynamics import gram_repays


def best_time(x, weights, spec, repeats):
    ea.solve_head(ea.build_context(x, weights), spec)  # warmup
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        ea.solve_head(ea.build_context(x, weights), spec)
        best = min(best, time.perf_counter() - start)
    return best


def per_iteration_cost(n, d, d_k, d_v, iters, repeats):
    x, weights = generate_inputs(RunConfig(n=n, d=d, d_k=d_k, d_v=d_v, form=ea.QUADRATIC, seed=n))
    times = []
    for max_iters in iters:
        # a tiny fixed step with no tolerance stop runs exactly max_iters
        # iterations of one product B w each
        spec = ea.HeadSpec(
            d=d, d_k=d_k, d_v=d_v, form=ea.QUADRATIC,
            descent=ea.DescentConfig(
                eta=1e-6, max_iters=max_iters, grad_tol=0.0, backtracking=False
            ),
            perturb_sigma=0.1, perturb_seed=n,
        )
        times.append(best_time(x, weights, spec, repeats))
    return (times[1] - times[0]) / (iters[1] - iters[0])


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", default="256,512,1024,2048")
    parser.add_argument("--d-v", type=int, default=4)
    parser.add_argument("--iters", default="150,250", help="the two iteration budgets")
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()

    sizes = [int(tok) for tok in args.sizes.split(",")]
    iters = [int(tok) for tok in args.iters.split(",")]
    if len(iters) != 2 or not 1 <= iters[0] < iters[1]:
        parser.error("--iters must be two budgets 1 <= low < high")
    for n in sizes:
        if gram_repays(iters[0], n, args.d_v) != gram_repays(iters[1], n, args.d_v):
            parser.error(
                f"at n={n} one budget forms B and the other does not; pick budgets "
                f"both >= or both < n / (4 d_v - 2) = {n / (4 * args.d_v - 2):.1f}"
            )
    costs = []
    print(f"{'n':>6s} {'per-iteration cost':>20s}")
    for n in sizes:
        costs.append(per_iteration_cost(n, 8, 4, args.d_v, iters, args.repeats))
        print(f"{n:6d} {costs[-1] * 1e3:17.3f} ms")
    if len(set(sizes)) < 2:
        parser.error("--sizes must name at least two different sizes to fit an exponent")
    if min(costs) <= 0:
        parser.error("a per-iteration cost came out non-positive; raise --repeats or --iters")
    slope = float(np.polyfit(np.log(sizes), np.log(costs), 1)[0])
    print(f"fitted exponent: {slope:.2f}")


if __name__ == "__main__":
    main()
