"""The benchmark's workloads: op kinds, their fixed mix, inputs and checks.

A workload is a closed loop with one client.  Its op sequence is a series
of rounds; each round is a seeded permutation of the workload's fixed mix
(every kind repeated ``weight`` times), and every op draws its own seed.
Both come from the workload seed alone, so one seed always gives the same
ops.  ``prepare`` builds an op's inputs outside the timed region and
returns ``(call, check)``: ``call()`` is the timed program call, and
``check(result)`` returns ``None`` or the reason the output is wrong.

CLI ops use one seed per run, so every repeat of an argv must reproduce the
bytes of its untimed warm-up run.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks

SEED_BOUND = 2**31


@dataclass(frozen=True)
class OpKind:
    name: str
    weight: int
    prepare: Callable[[int], tuple]


def theory_for(kind: str, n_bits: int):
    """The four dense-coding theories at their headline parameters."""
    from gptlab.core import TheoryConfig

    if kind == "base":
        return TheoryConfig.base(n_bits)
    if kind == "lambda-tau":
        return TheoryConfig.lambda_tau(n_bits, 1.0, 1.0 / (2**n_bits - 3))
    if kind == "weak":
        return TheoryConfig.weak(n_bits, 3.0 / (2**n_bits - 1))
    if kind == "embedded":
        return TheoryConfig.embedded(n_bits, 4)
    raise ValueError(kind)


def theory_argv(kind: str, n_bits: int) -> list:
    """CLI flags selecting the same theory as ``theory_for``."""
    theory = theory_for(kind, n_bits)
    argv = ["--theory", kind]
    if theory.lam is not None:
        argv += ["--lambda", repr(theory.lam)]
    if theory.tau is not None:
        argv += ["--tau", repr(theory.tau)]
    if theory.m is not None:
        argv += ["--m", str(theory.m)]
    return argv


def run_cli(argv: list) -> tuple:
    """``cli.main(argv)`` with the report captured; returns (code, text)."""
    from gptlab import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue()


class CliReferences:
    """First report text of each argv in this run, for the repeat check."""

    def __init__(self):
        self._texts = {}

    def check(self, argv, result):
        code, text = result
        key = tuple(argv)
        reason = checks.cli_report(code, text, self._texts.get(key))
        if reason is None:
            self._texts.setdefault(key, text)
        return reason


def cli_kind(name: str, weight: int, argv: list, refs: CliReferences, cli_seed: int) -> OpKind:
    full = list(argv) + ["--seed", str(cli_seed), "--format", "json"]

    def prepare(_seed):
        return (lambda: run_cli(full)), (lambda result: refs.check(full, result))

    return OpKind(name, weight, prepare)


# --------------------------------------------------------------------------
# falsify


def falsify_kinds(cli_seed: int) -> list:
    from gptlab import hst, protocols

    def capacity(dim):
        def prepare(seed):
            call = lambda: hst.capacity_search(dim, trials=100, seed=seed)  # noqa: E731
            return call, lambda best: checks.one_bit_ceiling(best, floor_one_bit=True)

        return OpKind(f"capacity_search_dim{dim}", 3, prepare)

    def separable(seed):
        call = lambda: protocols.separable_baseline(3, trials=25, seed=seed)  # noqa: E731
        return call, checks.one_bit_ceiling

    def product(seed):
        call = lambda: protocols.product_decoding_baseline(2, trials=25, seed=seed)  # noqa: E731
        return call, checks.one_bit_ceiling

    # Weights put the p50 rank inside the capacity-search cluster and the
    # p90 rank inside the product-decoding block, which lies between the
    # separable op and the slower verify op; four product ops a round give
    # that block enough samples for a steady p90.
    refs = CliReferences()
    return [capacity(dim) for dim in (2, 3, 7, 15)] + [
        OpKind("separable_baseline", 1, separable),
        OpKind("product_decoding_baseline", 4, product),
        cli_kind(
            "cli_verify_baseline",
            1,
            ["verify", "--suite", "baseline", "--trials", "64"],
            refs,
            cli_seed,
        ),
    ]


# --------------------------------------------------------------------------
# dense_scale


def dense_kind(kind: str, n_bits: int, weight: int) -> OpKind:
    from gptlab import capacity, protocols, variants

    def prepare(seed):
        theory = theory_for(kind, n_bits)

        def call():
            run = protocols.dense_coding(n_bits, theory, seed=seed)
            return run, capacity.blahut_arimoto(run.channel.conditional)

        def check(result):
            run, ba = result
            if kind in ("base", "embedded"):
                return checks.exact_dense_coding(
                    run.channel.conditional, run.info_bits, n_bits
                )
            if kind == "lambda-tau":
                return checks.lambda_tau_rate(
                    ba.capacity_bits, variants.lt_optimal_info(n_bits)
                )
            return checks.weak_rate(
                ba.capacity_bits, capacity.weak_entanglement_bound(theory.lam, n_bits)
            )

        return call, check

    return OpKind(f"dense_coding_{kind}_n{n_bits}", weight, prepare)


def swap_kind(n_bits: int, weight: int) -> OpKind:
    from gptlab import protocols

    def prepare(seed):
        label = seed % 2**n_bits
        call = lambda: protocols.entanglement_swap(n_bits, label=label, seed=seed)  # noqa: E731
        return call, lambda run: swap_check(run, label, n_bits)

    return OpKind(f"entanglement_swap_n{n_bits}", weight, prepare)


def swap_check(run, label: int, n_bits: int):
    reason = checks.exact_priors_and_residual(run.outcome_priors, run.max_residual, n_bits)
    if reason is None and run.label != label:
        reason = f"swapped label {run.label} != {label}"
    return reason


def dense_scale_kinds(cli_seed: int) -> list:
    # Small sizes repeat more often so that a run holds enough ops for a
    # p90, and so that the p50 and p90 ranks fall inside one size group
    # (N=6 and N=7 respectively) instead of on a boundary between groups;
    # N=7 runs twice a round so that the p90 rests on enough samples.
    weights = {5: 2, 6: 3, 7: 2}
    kinds = [
        dense_kind(kind, n_bits, weights[n_bits])
        for n_bits in (5, 6, 7)
        for kind in ("base", "lambda-tau", "weak", "embedded")
    ]
    kinds.append(dense_kind("base", 8, 1))
    kinds += [swap_kind(5, 2), swap_kind(6, 1)]
    return kinds


# --------------------------------------------------------------------------
# identities


LEMMA_THEORIES = (
    ("base", 2, {}),
    ("base", 3, {}),
    ("lambda-tau", 2, {"lam": 0.8, "tau": 0.5}),
    ("lambda-tau", 3, {"lam": 0.4, "tau": 0.5}),
    ("weak", 2, {"lam": 1.0 / 3.0}),
    ("weak", 3, {"lam": 0.4}),
    ("embedded", 2, {"m": 2}),
    ("embedded", 3, {"m": 4}),
)


def unit_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def identities_kinds(cli_seed: int) -> list:
    from gptlab import hadamard, hst, protocols, variants
    from gptlab.core import TheoryConfig

    def teleport(n_bits):
        def prepare(seed):
            rng = np.random.default_rng(seed)
            state = hst.make_state(unit_vector(rng, 2**n_bits - 1))
            call = lambda: protocols.teleport(state, n_bits, seed=seed, n_effects=100)  # noqa: E731
            return call, lambda run: checks.exact_priors_and_residual(
                run.outcome_priors, run.max_residual, n_bits
            )

        return OpKind(f"teleport_n{n_bits}", 2, prepare)

    def tomography(seed):
        phi = hadamard.entangled_state(seed % 8, 3)
        call = lambda: hadamard.local_tomography(phi)  # noqa: E731
        return call, lambda rebuilt: checks.reconstructed(rebuilt.matrix, phi.matrix)

    def membership(seed):
        phi = hadamard.entangled_state(seed % 8, 3)
        call = lambda: hadamard.verify_max_tensor_membership(phi, 3, trials=50, seed=seed)  # noqa: E731
        return call, checks.passed_report

    def lemmas(kind, n_bits, params):
        def prepare(seed):
            theory = TheoryConfig(kind, n_bits, **params)

            def call():
                states, effects = variants.constructed_family(theory, seed=seed)
                return (
                    [variants.lemma_state_check(phi) for phi in states],
                    [variants.lemma_effect_check(e) for e in effects],
                )

            return call, lambda result: checks.all_passed(result[0] + result[1])

        return OpKind(f"lemmas_{kind}_n{n_bits}", 1, prepare)

    def tl_witness(seed):
        theory = TheoryConfig.embedded(3, 4)
        call = lambda: variants.tl_violation_witness(theory, trials=50, seed=seed)  # noqa: E731
        return call, checks.passed_report

    refs = CliReferences()
    kinds = [teleport(2), teleport(3)]
    kinds += [swap_kind(n_bits, 1) for n_bits in (2, 3, 4)]
    kinds += [
        OpKind("local_tomography_n3", 1, tomography),
        OpKind("max_tensor_membership_n3", 1, membership),
        OpKind("tl_violation_witness", 1, tl_witness),
    ]
    kinds += [lemmas(*spec) for spec in LEMMA_THEORIES]
    kinds += [
        cli_kind(
            f"cli_dense_coding_{kind}",
            1,
            ["dense-coding", "--n-bits", "3"] + theory_argv(kind, 3),
            refs,
            cli_seed,
        )
        for kind in ("base", "lambda-tau", "weak", "embedded")
    ]
    kinds += [
        cli_kind("cli_teleport", 1, ["teleport", "--n-bits", "2"], refs, cli_seed),
        cli_kind("cli_swap", 1, ["swap", "--n-bits", "3", "--mu", "5"], refs, cli_seed),
        cli_kind("cli_lambda_tau_table", 1, ["lambda-tau-table", "--n-max", "6"], refs, cli_seed),
    ]
    # The tomography suite runs twice per round so that the p90 rank falls
    # in the middle of its block, between the lemmas and consistency suites.
    kinds += [
        cli_kind(
            f"cli_verify_{suite}",
            2 if suite == "tomography" else 1,
            ["verify", "--suite", suite],
            refs,
            cli_seed,
        )
        for suite in ("group", "consistency", "tomography", "lemmas")
    ]
    return kinds


WORKLOADS = {
    "falsify": falsify_kinds,
    "dense_scale": dense_scale_kinds,
    "identities": identities_kinds,
}


def op_kinds(workload: str, seed: int) -> list:
    cli_seed = int(np.random.default_rng([seed, 0]).integers(SEED_BOUND))
    return WORKLOADS[workload](cli_seed)


def round_ops(kinds: list, seed: int, index: int) -> list:
    """Round ``index`` of the op sequence: ``[(kind, op_seed), ...]``."""
    rng = np.random.default_rng([seed, 1, index])
    pool = [k for k in kinds for _ in range(k.weight)]
    order = rng.permutation(len(pool))
    seeds = rng.integers(SEED_BOUND, size=len(pool))
    return [(pool[i], int(s)) for i, s in zip(order, seeds)]
