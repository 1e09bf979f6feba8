#!/usr/bin/env python3
"""Perturb a non-linear head away from its stationary start and watch the
descent pull it back. Prints the per-iteration energy and gradient norm.

Example:
    python scripts/descent_demo.py --form exponential --sigma 0.2 --seed 3
"""

import argparse

import energy_attention as ea
from energy_attention.cli import RunConfig, generate_inputs


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--form", default="quadratic",
                        choices=["linear", "quadratic", "polynomial", "exponential"])
    parser.add_argument("--p", type=int, default=4,
                        help="degree when --form polynomial; odd p >= 3 has no lower bound, "
                             "so such a head may run away from AV")
    parser.add_argument("--n", type=int, default=4)
    parser.add_argument("--d", type=int, default=8)
    parser.add_argument("--d-k", type=int, default=4)
    parser.add_argument("--d-v", type=int, default=2)
    parser.add_argument("--sigma", type=float, default=0.1, help="perturbation scale for Z0")
    parser.add_argument("--eta", type=float, default=0.1)
    parser.add_argument("--iters", type=int, default=500)
    parser.add_argument("--tol", type=float, default=1e-6, help="gradient-norm stop")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    config = RunConfig(
        n=args.n, d=args.d, d_k=args.d_k, d_v=args.d_v,
        form=ea.EnergyForm(args.form, args.p if args.form == "polynomial" else None),
        eta=args.eta, t_max=args.iters, grad_tol=args.tol,
        perturb_sigma=args.sigma, seed=args.seed,
    )
    x, weights = generate_inputs(config)
    spec = config.head_spec()
    ctx = ea.build_context(x, weights)  # kept to measure the distance to AV
    out = ea.solve_head(ctx, spec)

    print(f"form={spec.form.label} n={args.n} sigma={args.sigma} eta={args.eta}")
    print(f"{'iter':>5s} {'energy':>22s} {'grad_norm':>14s}")
    for i, (e, g) in enumerate(zip(out.trace.energies, out.trace.grad_norms)):
        if i < 10 or i % 10 == 0 or i == out.trace.iters:
            print(f"{i:5d} {e:22.12e} {g:14.6e}")
    print(f"stopped ({out.trace.stop_reason}) after {out.trace.iters} iterations; "
          f"distance to AV = {ea.frobenius_norm(out.z - ctx.av):.3e}")


if __name__ == "__main__":
    main()
