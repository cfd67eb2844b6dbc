"""Command-line front end: argument parsing, the ``cmd_*`` commands and rendering.

Subcommands run the protocols and the validator suites of ``gptlab.checks``
and emit reports as a plain table, JSON or CSV.  Output is deterministic for
a fixed command line and seed (stable key order, round-trip float
formatting); wall time goes to stderr so report bytes stay reproducible.
Each ``cmd_*`` returns ``(fields, rows, code)``; ``main`` puts the
``schema_version`` and ``command`` every report shares ahead of ``fields``
and renders the report once, building only the format asked for: ``rows``
yields the CSV rows and runs for ``csv`` only.

Exit codes: 0 success, 1 validation failure, 2 domain or flag error,
3 protocol falsification (including a JSON report that would hold NaN or inf),
4 out of memory.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
import time

import numpy as np

from . import __version__, hst, protocols, variants
from .capacity import (
    dimension_upper_bound,
    weak_entanglement_bound,
    weak_thresholds,
)
from .checks import SUITES, _suite_baseline  # noqa: F401 (mutation tests look both up here)
from .core import (
    _PARAM_NAMES,
    KIND_PARAMS,
    MAX_N_BITS,
    THEORY_KINDS,
    DomainError,
    GptError,
    ProtocolFalsified,
    TheoryConfig,
    _check_count,
)

SCHEMA_VERSION = 1

# Rounded two-decimal reference rates for the deformed-model table.
REFERENCE_RATES = {2: 2.0, 3: 0.15, 4: 0.05, 5: 0.02}
REFERENCE_RATE_TOL = 5e-3


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


def _emit(report: dict, rows, args) -> None:
    """Render ``report`` in ``args.format`` and write it to stdout or ``--out``.

    ``rows`` is a zero-argument callable yielding the CSV rows; it is called
    for ``--format csv`` only.  The whole text is built before anything is
    written, so a JSON report holding NaN or inf writes nothing; an
    ``--out`` that cannot be opened raises ``DomainError``.
    """
    buffer = io.StringIO()
    if args.format == "csv":
        csv.writer(buffer, lineterminator="\n").writerows(rows())
    elif args.format == "json":
        try:
            json.dump(_jsonable(report), buffer, sort_keys=True, indent=2, allow_nan=False)
        except ValueError as exc:
            raise ProtocolFalsified(f"the report holds a non-finite value ({exc})") from exc
        buffer.write("\n")
    else:
        buffer.write(_format_table(_jsonable(report)))
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(buffer.getvalue())
        except OSError as exc:
            raise DomainError(f"cannot write --out {args.out!r}: {exc.strerror}") from exc
    else:
        sys.stdout.write(buffer.getvalue())


def _format_table(report: dict, indent: str = "") -> str:
    """Indented ``key: value`` lines of a report already passed through ``_jsonable``."""
    lines = []
    for key, value in report.items():
        if isinstance(value, dict):
            lines.append(f"{indent}{key}:")
            lines.append(_format_table(value, indent + "  "))
        elif isinstance(value, list) and value and all(isinstance(v, dict) for v in value):
            lines.append(f"{indent}{key}:")
            for i, item in enumerate(value):
                lines.append(f"{indent}  [{i}]")
                lines.append(_format_table(item, indent + "    "))
        elif isinstance(value, list) and value and all(isinstance(v, list) for v in value):
            lines.append(f"{indent}{key}:")
            for row in value:
                lines.append(indent + "  " + " ".join(f"{v:10.6g}" for v in row))
        elif isinstance(value, list):
            lines.append(f"{indent}{key}: " + " ".join(str(v) for v in value))
        else:
            lines.append(f"{indent}{key}: {value}")
    return "\n".join(line for line in lines if line) + ("\n" if not indent else "")


def _indexed_rows(table, trailer, columns=None):
    """CSV rows of a table indexed by the input x: a header, one row per x,
    a blank row, then the ``trailer`` rows.  Columns default to ``y0, y1, ...``.
    """
    if columns is None:
        columns = [f"y{y}" for y in range(table.shape[1])]
    yield ["x", *columns]
    for x, row in enumerate(table):
        yield [x, *row.tolist()]
    yield []
    yield from trailer


def _check_n_bits(args) -> None:
    if not 1 <= args.n_bits <= MAX_N_BITS:
        raise DomainError(f"--n-bits must be between 1 and {MAX_N_BITS}, got {args.n_bits}")


def _theory_from_args(args) -> TheoryConfig:
    params = {attr: getattr(args, attr) for attr in KIND_PARAMS[args.theory]}
    missing = [f"--{_PARAM_NAMES[attr]}" for attr, value in params.items() if value is None]
    if missing:
        raise DomainError(f"the {args.theory} model needs {' and '.join(missing)}")
    return TheoryConfig(args.theory, args.n_bits, **params)


def cmd_dense_coding(args) -> tuple:
    _check_n_bits(args)
    theory = _theory_from_args(args)
    run = protocols.dense_coding(args.n_bits, theory=theory, seed=args.seed)
    label = protocols.classify(run.info_bits, theory.local_capacity_bits).value
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
    fields = {
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
            "conditional": conditional,
        },
        "info_bits": run.info_bits,
        "bounds": bounds,
        "classification": label,
        "validators": validators,
    }
    trailer = [["info_bits", run.info_bits], ["classification", label]]
    rows = functools.partial(_indexed_rows, conditional, trailer)
    return fields, rows, 0


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


def cmd_teleport(args) -> tuple:
    _check_n_bits(args)
    dim = 2**args.n_bits - 1
    state = _parse_state_spec(args.state, dim, args.seed)
    run = protocols.teleport(state, args.n_bits, seed=args.seed)
    fields = {
        "seed": args.seed,
        "n_bits": args.n_bits,
        "state": args.state,
        "outcome_priors": run.outcome_priors,
        "max_residual": run.max_residual,
        "passed": run.passed,
    }
    trailer = [["max_residual", run.max_residual]]
    rows = functools.partial(_indexed_rows, run.outcome_priors[:, None], trailer, ["p_x"])
    return fields, rows, 0 if run.passed else 3


def cmd_swap(args) -> tuple:
    _check_n_bits(args)
    run = protocols.entanglement_swap(args.n_bits, label=args.mu, seed=args.seed)
    fields = {
        "seed": args.seed,
        "n_bits": args.n_bits,
        "mu": args.mu,
        "outcome_priors": run.outcome_priors,
        "conditional": run.conditional,
        "max_residual": run.max_residual,
        "passed": run.passed,
    }
    trailer = [["max_residual", run.max_residual]]
    rows = functools.partial(_indexed_rows, run.conditional, trailer)
    return fields, rows, 0 if run.passed else 3


def cmd_lambda_tau_table(args) -> tuple:
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
    fields = {
        "n_max": args.n_max,
        "rows": entries,
    }
    columns = ("n_bits", "info_bits", "lambda_tau", "reference_bits", "agrees")

    def rows():
        yield list(columns)
        for row in entries:
            yield [row.get(key, "") for key in columns]

    disagreement = any(r.get("agrees") is False for r in entries)
    return fields, rows, 1 if disagreement else 0


def cmd_verify(args) -> tuple:
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
    fields = {
        "seed": args.seed,
        "trials": args.trials,
        "suites": suites,
        "passed": all_passed,
    }

    def rows():
        yield ["suite", "check", "value"]
        for name, data in suites.items():
            for check, value in data["checks"].items():
                yield [name, check, value]
        yield ["all", "passed", all_passed]

    return fields, rows, 0 if all_passed else 1


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
    p.add_argument("--theory", choices=THEORY_KINDS, default="base")
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
        help="best rates of the locally continuous deformed model at lambda*tau >= 0",
    )
    p.add_argument("--n-max", type=int, default=5)
    add_common(p)
    p.set_defaults(func=cmd_lambda_tau_table)

    p = sub.add_parser("verify", help="run validator suites")
    p.add_argument("--suite", choices=(*SUITES, "all"), default="all")
    p.add_argument("--trials", type=int, default=1000)
    add_common(p)
    p.set_defaults(func=cmd_verify)

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built once per process.

    Sharing it is safe because parsing leaves no state on the parser: no
    action appends to a default, each call fills a new ``Namespace``, and
    an argument error or ``--version`` leaves through ``SystemExit``.
    """
    return build_parser()


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        _check_count("--seed", args.seed, 0, DomainError)
        fields, rows, code = args.func(args)
        report = {"schema_version": SCHEMA_VERSION, "command": args.command, **fields}
        _emit(report, rows, args)
    except ProtocolFalsified as exc:
        print(f"protocol falsified: {exc}", file=sys.stderr)
        return 3
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
