"""Command-line front end.

Subcommands run the protocols and validator suites and emit reports as a
plain table, JSON or CSV.  Output is deterministic for a fixed command
line and seed (stable key order, round-trip float formatting); wall time
goes to stderr so report bytes stay reproducible.

Exit codes: 0 success, 1 validation failure, 2 domain or flag error,
3 protocol falsification (including a JSON report that would hold NaN or inf).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from enum import Enum

import numpy as np

from . import __version__, hadamard, hst, protocols, variants
from .capacity import (
    dimension_upper_bound,
    weak_entanglement_bound,
    weak_thresholds,
)
from .core import (
    EXACT_TOL,
    MAX_N_BITS,
    OPT_TOL,
    BipartiteState,
    DomainError,
    GptError,
    ProtocolFalsified,
    TheoryConfig,
    mix_bipartite,
)

SCHEMA_VERSION = 1

# Rounded two-decimal reference rates for the deformed-model table.
REFERENCE_RATES = {2: 2.0, 3: 0.15, 4: 0.05, 5: 0.02}
REFERENCE_RATE_TOL = 5e-3


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    return value


def _emit(report: dict, rows: list, args) -> None:
    if args.format == "json":
        try:
            text = json.dumps(_jsonable(report), sort_keys=True, indent=2, allow_nan=False)
        except ValueError as exc:
            raise ProtocolFalsified(f"the report holds a non-finite value ({exc})") from exc
        text += "\n"
    elif args.format == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        for row in rows:
            writer.writerow(row)
        text = buffer.getvalue()
    else:
        text = _format_table(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _format_table(report: dict, indent: str = "") -> str:
    lines = []
    for key, value in report.items():
        value = _jsonable(value)
        if isinstance(value, dict):
            lines.append(f"{indent}{key}:")
            lines.append(_format_table(value, indent + "  "))
        elif (
            isinstance(value, list)
            and value
            and all(isinstance(v, dict) for v in value)
        ):
            lines.append(f"{indent}{key}:")
            for i, item in enumerate(value):
                lines.append(f"{indent}  [{i}]")
                lines.append(_format_table(item, indent + "    "))
        elif (
            isinstance(value, list)
            and value
            and all(isinstance(v, list) for v in value)
        ):
            lines.append(f"{indent}{key}:")
            for row in value:
                lines.append(
                    indent + "  " + " ".join(f"{float(v):10.6g}" for v in row)
                )
        elif isinstance(value, list):
            lines.append(f"{indent}{key}: " + " ".join(str(v) for v in value))
        else:
            lines.append(f"{indent}{key}: {value}")
    return "\n".join(line for line in lines if line) + ("\n" if not indent else "")


def _check_n_bits(args) -> None:
    if not 1 <= args.n_bits <= MAX_N_BITS:
        raise DomainError(f"--n-bits must be between 1 and {MAX_N_BITS}, got {args.n_bits}")


def _theory_from_args(args) -> TheoryConfig:
    kind = args.theory
    if kind == "base":
        return TheoryConfig.base(args.n_bits)
    if kind == "lambda-tau":
        if args.lam is None or args.tau is None:
            raise DomainError("--lambda and --tau are required for lambda-tau")
        return TheoryConfig.lambda_tau(args.n_bits, args.lam, args.tau)
    if kind == "embedded":
        if args.m is None:
            raise DomainError("--m is required for the embedded model")
        return TheoryConfig.embedded(args.n_bits, args.m)
    if kind == "weak":
        if args.lam is None:
            raise DomainError("--lambda is required for the weak model")
        return TheoryConfig.weak(args.n_bits, args.lam)
    raise DomainError(f"unknown theory {kind!r}")


def cmd_dense_coding(args) -> int:
    _check_n_bits(args)
    theory = _theory_from_args(args)
    run = protocols.dense_coding(args.n_bits, theory=theory, seed=args.seed)
    grade = protocols.classify(run.info_bits, theory.local_capacity_bits)
    bounds = {
        "dc_lower_bits": run.info_bits,
        "dimension_upper_bits": dimension_upper_bound(args.n_bits),
        "local_capacity_bits": theory.local_capacity_bits,
    }
    if theory.kind == "weak":
        bounds["weak_bound_bits"] = weak_entanglement_bound(theory.lam, args.n_bits)
        t0, t1 = weak_thresholds(args.n_bits)
        bounds["weak_thresholds"] = [t0, t1]
    conditional = run.channel.conditional
    validators = {
        "row_sum_residual": float(np.abs(conditional.sum(axis=1) - 1.0).max()),
    }
    if theory.kind in ("base", "embedded"):
        validators["identity_residual"] = float(
            np.abs(conditional - np.eye(conditional.shape[0])).max()
        )
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "dense-coding",
        "seed": args.seed,
        "theory": {
            "kind": theory.kind,
            "n_bits": theory.n_bits,
            "lambda": theory.lam,
            "tau": theory.tau,
            "m": theory.m,
        },
        "channel": {
            "prior": run.channel.prior,
            "conditional": run.channel.conditional,
        },
        "info_bits": run.info_bits,
        "bounds": bounds,
        "classification": grade.label.value,
        "validators": validators,
    }
    rows = [["x"] + [f"y{y}" for y in range(run.channel.n_outputs)]]
    for x, row in enumerate(run.channel.conditional):
        rows.append([x] + [repr(float(v)) for v in row])
    rows.append([])
    rows.append(["info_bits", repr(run.info_bits)])
    rows.append(["classification", grade.label.value])
    _emit(report, rows, args)
    return 0


def _parse_state_spec(spec: str, dim: int, seed: int):
    if spec == "random":
        rng = np.random.default_rng(seed)
        return hst.random_pure_state(dim, rng)
    if spec.startswith("axis:"):
        try:
            k = int(spec.split(":", 1)[1])
        except ValueError as exc:
            raise DomainError(f"bad axis index in {spec!r}") from exc
        if not 1 <= k <= dim:
            raise DomainError(f"axis index must be in 1..{dim}, got {k}")
        direction = np.zeros(dim)
        direction[k - 1] = 1.0
        return hst.make_state(direction)
    raise DomainError(f"--state must be 'random' or 'axis:k', got {spec!r}")


def cmd_teleport(args) -> int:
    _check_n_bits(args)
    dim = 2**args.n_bits - 1
    state = _parse_state_spec(args.state, dim, args.seed)
    run = protocols.teleport(state, args.n_bits, seed=args.seed)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "teleport",
        "seed": args.seed,
        "n_bits": args.n_bits,
        "state": args.state,
        "outcome_priors": run.outcome_priors,
        "max_residual": run.max_residual,
        "passed": run.passed,
    }
    rows = [["x", "p_x"]]
    for x, p in enumerate(run.outcome_priors):
        rows.append([x, repr(float(p))])
    rows.append([])
    rows.append(["max_residual", repr(run.max_residual)])
    _emit(report, rows, args)
    return 0 if run.passed else 3


def cmd_swap(args) -> int:
    _check_n_bits(args)
    run = protocols.entanglement_swap(args.n_bits, label=args.mu, seed=args.seed)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "swap",
        "seed": args.seed,
        "n_bits": args.n_bits,
        "mu": args.mu,
        "outcome_priors": run.outcome_priors,
        "conditional": run.conditional,
        "max_residual": run.max_residual,
        "passed": run.passed,
    }
    rows = [["x"] + [f"y{y}" for y in range(run.conditional.shape[1])]]
    for x, row in enumerate(run.conditional):
        rows.append([x] + [repr(float(v)) for v in row])
    rows.append([])
    rows.append(["max_residual", repr(run.max_residual)])
    _emit(report, rows, args)
    return 0 if run.passed else 3


def cmd_lambda_tau_table(args) -> int:
    if not 2 <= args.n_max <= variants.LT_MAX_N_BITS:
        raise DomainError(
            f"--n-max must be between 2 and {variants.LT_MAX_N_BITS}, got {args.n_max}"
        )
    entries = []
    for n in range(2, args.n_max + 1):
        info = variants.lt_optimal_info(n)
        row = {
            "n_bits": n,
            "info_bits": info,
            "lambda_tau": variants.lt_optimal_product(n),
            "peak_probability": variants.lt_peak_probability(n),
        }
        if n in REFERENCE_RATES:
            row["reference_bits"] = REFERENCE_RATES[n]
            row["agrees"] = bool(abs(info - REFERENCE_RATES[n]) <= REFERENCE_RATE_TOL)
        entries.append(row)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "lambda-tau-table",
        "n_max": args.n_max,
        "rows": entries,
    }
    rows = [["n_bits", "info_bits", "lambda_tau", "reference_bits", "agrees"]]
    for row in entries:
        rows.append(
            [
                row["n_bits"],
                repr(row["info_bits"]),
                repr(row["lambda_tau"]),
                repr(row.get("reference_bits", "")),
                row.get("agrees", ""),
            ]
        )
    _emit(report, rows, args)
    disagreement = any(r.get("agrees") is False for r in entries)
    return 1 if disagreement else 0


# --------------------------------------------------------------------------
# verify suites


def _suite_group(seed: int, trials: int) -> dict:
    checks = {}
    for n in range(1, 7):
        basis = hadamard.hadamard_basis(n)
        size = 2**n
        labels = np.arange(size)
        gram = basis @ basis.T
        checks[f"orthogonality_n{n}"] = bool(
            np.array_equal(gram, size * np.eye(size, dtype=np.int64))
        )
        col = basis.sum(axis=0)
        expected = np.zeros(size, dtype=np.int64)
        expected[0] = size
        checks[f"column_sums_n{n}"] = bool(np.array_equal(col, expected))
        # T_x = diag(d_x) for every x and d_x o d_y = d_(x^y) for every pair
        # together are T_x T_y = T_(x^y): products of +-1 diagonals are exact.
        table_ok = True
        dets_ok = True
        for x in range(size):
            tx = hadamard.local_transformation(x, n)
            table_ok &= np.array_equal(tx.matrix, np.diag(basis[x]))
            table_ok &= np.array_equal(basis[x] * basis, basis[x ^ labels])
            if n >= 2:
                dets_ok &= round(float(np.linalg.det(tx.hat))) == 1
        checks[f"group_table_n{n}"] = table_ok
        if n >= 2:
            checks[f"rotation_determinants_n{n}"] = dets_ok
    return checks


def _suite_consistency(seed: int, trials: int) -> dict:
    checks = {}
    rng = np.random.default_rng(seed)
    draws = max(1, trials // 10)
    for n in (2, 3):
        size = 2**n
        dim = size - 1
        labels = np.arange(size)
        transforms = np.stack([hadamard.local_transformation(x, n).matrix for x in labels])
        entangled = [hadamard.entangled_state(mu, n) for mu in range(size)]
        phis = np.stack([phi.matrix for phi in entangled])
        effects = np.stack([e.matrix for e in hadamard.bell_measurement(n).effects])

        states = np.ones((draws, dim + 1))
        for row in states:
            row[1:] = hst.random_ball_point(dim, rng)
        moved = np.einsum("xij,sj->xsi", transforms, states)
        norm_gap = np.linalg.norm(moved[..., 1:], axis=-1) - np.linalg.norm(
            states[:, 1:], axis=-1
        )
        checks[f"norm_preserved_n{n}"] = bool((np.abs(norm_gap) <= EXACT_TOL).all())
        checks[f"entangled_orbit_n{n}"] = np.array_equal(
            transforms[:, None] @ phis[None], phis[labels[:, None] ^ labels]
        )
        unit = np.zeros_like(effects[0])
        unit[0, 0] = 1.0
        checks[f"bell_completeness_n{n}"] = np.array_equal(effects.sum(axis=0), unit)
        checks[f"max_tensor_membership_n{n}"] = all(
            hadamard.verify_max_tensor_membership(phi, n, trials=50, seed=seed + mu).passed
            for mu, phi in enumerate(entangled)
        )
        checks[f"reduced_states_mixed_n{n}"] = not (
            phis[:, 1:, 0].any() or phis[:, 0, 1:].any()
        )
        # Each pair of pure states draws its A side, then its B side.
        pairs = np.ones((draws, 2, dim + 1))
        pairs[..., 1:] = hst.random_directions(2 * draws, dim, rng).reshape(draws, 2, dim)
        probs = np.einsum("mij,si,sj->sm", effects, pairs[:, 0], pairs[:, 1])
        ceiling = 2.0 ** -(n - 1)
        checks[f"effect_product_range_n{n}"] = bool(
            ((probs >= -EXACT_TOL) & (probs <= ceiling + EXACT_TOL)).all()
        )
        spread = protocols.no_signalling_spread(n, max(1, trials // 100), seed)
        checks[f"no_signalling_n{n}"] = spread <= EXACT_TOL
    return checks


def _suite_tomography(seed: int, trials: int) -> dict:
    checks = {}
    rng = np.random.default_rng(seed)
    for n in (1, 2, 3):
        size = 2**n
        dim = size - 1
        entangled_ok = all(
            np.abs(
                hadamard.local_tomography(hadamard.entangled_state(mu, n)).matrix
                - hadamard.entangled_state(mu, n).matrix
            ).max()
            <= EXACT_TOL
            for mu in range(size)
        )
        checks[f"entangled_recovered_n{n}"] = entangled_ok
        # Five product states, each drawing its A side, then its B side.
        sides = np.ones((5, 2, dim + 1))
        for row in sides.reshape(10, -1):
            row[1:] = hst.random_ball_point(dim, rng)
        products = [BipartiteState(np.outer(a, b)) for a, b in sides]
        checks[f"products_recovered_n{n}"] = all(
            np.abs(hadamard.local_tomography(phi).matrix - phi.matrix).max() <= EXACT_TOL
            for phi in products
        )
        mix = mix_bipartite(
            [hadamard.entangled_state(0, n), hadamard.entangled_state(size - 1, n)],
            [0.5, 0.5],
        )
        checks[f"mixtures_recovered_n{n}"] = bool(
            np.abs(hadamard.local_tomography(mix).matrix - mix.matrix).max() <= EXACT_TOL
        )
    return checks


def _suite_lemmas(seed: int, trials: int) -> dict:
    checks = {}
    theories = [
        TheoryConfig.base(2),
        TheoryConfig.base(3),
        TheoryConfig.lambda_tau(2, 0.8, 0.5),
        TheoryConfig.lambda_tau(3, 0.4, 0.5),
        TheoryConfig.weak(2, 1.0 / 3.0),
        TheoryConfig.weak(3, 0.4),
        TheoryConfig.embedded(2, 2),
        TheoryConfig.embedded(3, 4),
    ]
    for theory in theories:
        states, effects = variants.constructed_family(theory, seed=seed)
        key = f"{theory.kind}_n{theory.n_bits}"
        checks[f"states_{key}"] = all(
            variants.lemma_state_check(phi).passed for phi in states
        )
        checks[f"effects_{key}"] = all(
            variants.lemma_effect_check(e).passed for e in effects
        )
    return checks


def _suite_baseline(seed: int, trials: int) -> dict:
    checks = {}
    # The separable trials run in 8 independently seeded chunks; the first
    # ``trials % 8`` chunks take one extra trial and empty chunks are skipped.
    chunks = 8
    seeds = [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(chunks)]
    counts = [trials // chunks + (i < trials % chunks) for i in range(chunks)]
    best = max(
        protocols.separable_baseline(3, count, s) for count, s in zip(counts, seeds) if count
    )
    checks["separable_max_bits"] = best
    checks["separable_within_one_bit"] = best <= 1.0 + OPT_TOL
    prop5 = protocols.product_decoding_baseline(2, max(1, trials // 4), seed)
    checks["product_decoding_max_bits"] = prop5
    checks["product_decoding_within_one_bit"] = prop5 <= 1.0 + OPT_TOL
    return checks


SUITES = {
    "group": _suite_group,
    "consistency": _suite_consistency,
    "tomography": _suite_tomography,
    "lemmas": _suite_lemmas,
    "baseline": _suite_baseline,
}


def cmd_verify(args) -> int:
    if args.trials < 1:
        raise DomainError(f"--trials must be >= 1, got {args.trials}")
    names = list(SUITES) if args.suite == "all" else [args.suite]
    suites = {}
    all_passed = True
    for name in names:
        checks = SUITES[name](args.seed, args.trials)
        passed = all(v is not False for v in checks.values())
        all_passed = all_passed and passed
        suites[name] = {"passed": passed, "checks": checks}
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "verify",
        "seed": args.seed,
        "trials": args.trials,
        "suites": suites,
        "passed": all_passed,
    }
    rows = [["suite", "check", "value"]]
    for name, data in suites.items():
        for check, value in data["checks"].items():
            rows.append([name, check, value])
    rows.append(["all", "passed", all_passed])
    _emit(report, rows, args)
    return 0 if all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gptlab",
        description="Hypersphere-model protocol simulations and capacity checks.",
    )
    parser.add_argument("--version", action="version", version=f"gptlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", choices=("table", "json", "csv"), default="table")
        p.add_argument("--out", default=None, help="write the report to this path")

    p = sub.add_parser("dense-coding", help="run a dense-coding protocol")
    p.add_argument("--n-bits", type=int, required=True)
    p.add_argument(
        "--theory",
        choices=("base", "lambda-tau", "embedded", "weak"),
        default="base",
    )
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--m", type=int, default=None)
    add_common(p)
    p.set_defaults(func=cmd_dense_coding)

    p = sub.add_parser("teleport", help="teleport a single-system state")
    p.add_argument("--n-bits", type=int, required=True)
    p.add_argument("--state", default="random", help="'random' or 'axis:k'")
    add_common(p)
    p.set_defaults(func=cmd_teleport)

    p = sub.add_parser("swap", help="entanglement swapping")
    p.add_argument("--n-bits", type=int, required=True)
    p.add_argument("--mu", type=int, default=0, help="label of the swapped state")
    add_common(p)
    p.set_defaults(func=cmd_swap)

    p = sub.add_parser(
        "lambda-tau-table",
        help="best rates of the locally continuous deformed model",
    )
    p.add_argument("--n-max", type=int, default=5)
    add_common(p)
    p.set_defaults(func=cmd_lambda_tau_table)

    p = sub.add_parser("verify", help="run validator suites")
    p.add_argument(
        "--suite",
        choices=("group", "consistency", "tomography", "lemmas", "baseline", "all"),
        default="all",
    )
    p.add_argument("--trials", type=int, default=1000)
    add_common(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        code = args.func(args)
    except ProtocolFalsified as exc:
        print(f"protocol falsified: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print(
            f"error: out of memory in {args.command}; try a smaller --n-bits or --trials",
            file=sys.stderr,
        )
        return 4
    print(
        f"completed {args.command} in {time.perf_counter() - started:.3f}s",
        file=sys.stderr,
    )
    return code


if __name__ == "__main__":
    sys.exit(main())
