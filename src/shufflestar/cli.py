"""Command-line driver: products, symmetrization, divisibility, secants, verify.

All commands emit a single JSON report on stdout (or --out) echoing their
inputs; identical invocations produce byte-identical reports.  Each command
takes only the options it reads (`build_parser`), and no environment
variable reaches a run.  Timings are only included with --timings, since
they would break that contract.  Human-oriented progress goes to stderr.

A report is one canonical dump: sorted keys, no spaces, a trailing newline.
Elements go into it as `core.wire_dict`s.  The join path of `secant`
writes a component's basis from its canonical rows
(`ComponentBasis.wire_rows`) and never builds its elements; the oracle and
the Weyman quadrics, which are elements already, go through `wire_dict`
from their sorted terms.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import nullcontext
from functools import cache
from pathlib import Path

from .core import (
    IncFn,
    TensorMonomial,
    coeff_to_str,
    element_from_dict,
    element_to_dict,
    wire_dict,
)
from .linalg import CoeffLimitExceeded
from .poset import encode_tree, rl_leq
from .products import Split, invariant_shuffle, shuffle_product, star_product, sym_shuffle, sym_star
from .stages import REPORT, StageClock
from .symmetry import delta_sym, from_invariant, pi, pi_prime, to_invariant
from .plucker import (
    GrassmannConfig,
    basic_plucker,
    degree_probe,
    evaluation_kernel,
    plucker_ideal,
    secant_ideal,
    weyman_quadrics,
)
from .verify import CHECK_NAMES, run_checks


def _read_element(path: str, symmetric: bool):
    with open(path) as fh:
        return element_from_dict(json.load(fh), symmetric=symmetric)


def _single_monomial(path: str) -> TensorMonomial:
    el = _read_element(path, symmetric=False)
    if len(el.terms) != 1:
        raise ValueError(f"{path} must hold exactly one monomial, found {len(el.terms)}")
    key = next(iter(el.terms))
    return TensorMonomial(el.d, el.n, el.M, key)


def _emit(report: dict, args) -> None:
    # a report is a tree the handlers build afresh, so the encoder's cycle
    # check, one table entry per list and dict, is skipped
    text = json.dumps(report, sort_keys=True, separators=(",", ":"),
                      check_circular=False) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _parse_ints(s: str) -> tuple[int, ...]:
    return tuple(int(x) for x in s.split(",") if x.strip())


def _elements_json(elements) -> list:
    return [wire_dict(e.d, e.n, e.M, sorted(e.terms.items())) for e in elements]


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def cmd_star(args) -> dict:
    sym = not args.tensor
    f = _read_element(args.lhs, sym)
    h = _read_element(args.rhs, sym)
    image = _parse_ints(args.g)
    g = IncFn(f.M * f.d, f.M * (f.d + h.d), image)
    res = sym_star(f, h, g) if sym else star_product(f, h, g)
    return {"result": element_to_dict(res)}


def cmd_shuffle(args) -> dict:
    sym = not args.tensor
    f = _read_element(args.lhs, sym)
    h = _read_element(args.rhs, sym)
    if sym:
        res = sym_shuffle(f, h)
    elif args.split:
        res = shuffle_product(f, h, Split(f.n + h.n, _parse_ints(args.split)))
    else:
        res = invariant_shuffle(f, h)
    return {"result": element_to_dict(res)}


def cmd_pi(args) -> dict:
    f = _read_element(args.input, symmetric=False)
    res = pi_prime(f) if args.prime else pi(f)
    return {"result": element_to_dict(res)}


def cmd_gi(args) -> dict:
    if args.direction == "to-tensor":
        f = _read_element(args.input, symmetric=True)
        res = to_invariant(f)
    else:
        f = _read_element(args.input, symmetric=False)
        res = from_invariant(f)
    return {"result": element_to_dict(res)}


def cmd_delta(args) -> dict:
    f = _read_element(args.input, symmetric=True)
    pair = delta_sym(f)
    terms = [{"coeff": coeff_to_str(pair.terms[(lk, rk)]),
              "left": [list(fac) for fac in lk],
              "right": [list(fac) for fac in rk]}
             for (lk, rk) in sorted(pair.terms)]
    return {"result": {"bidegree": [f.d, f.n, f.M], "terms": terms}}


def cmd_divides(args) -> dict:
    S = _single_monomial(args.lhs)
    T = _single_monomial(args.rhs)
    witness = rl_leq(S, T)
    if witness is None:
        sys.stderr.write("incomparable\n")
        return {"result": {"comparable": False}}
    sys.stderr.write(f"positions {list(witness.positions)}, "
                     f"g image {list(witness.g.image)}\n")
    return {"result": {"comparable": True,
                       "positions": list(witness.positions),
                       "g_image": list(witness.g.image)}}


def cmd_tree(args) -> dict:
    S = _single_monomial(args.input)
    t = encode_tree(S)
    return {"result": {
        "d": t.d, "M": t.M, "branches": t.n,
        "root": [t.root[0], t.root[1], list(t.root[2])],
        "vertices": [[[k, j, list(psi)] for (k, j, psi) in branch]
                     for branch in t.branches],
    }}


def cmd_plucker(args) -> dict:
    cfg = GrassmannConfig(d=args.d, N=args.N)
    out: dict = {"d": cfg.d, "N": cfg.N, "M": cfg.M}
    if args.basic:
        if cfg.d % 2:
            raise ValueError("the basic family has even width")
        out["basic"] = element_to_dict(basic_plucker(cfg.d // 2))
    if args.weyman or not args.basic:
        out["weyman"] = _elements_json(weyman_quadrics(cfg.d, cfg.N))
    return {"result": out}


def _with_cache(body: dict, ideal) -> dict:
    """The report body, with the disk-cache reads of `ideal` beside its
    result when the ideal has a cache directory."""
    if ideal.cache_dir is not None:
        body["cache"] = ideal.cache_stats
    return body


def cmd_secant(args) -> dict:
    # the flags a mode never reads are refused when given a value: the
    # oracle builds no ideal, and the join engine samples nothing
    unread = ("cache_dir", "max_coeff_bits") if args.oracle else ("seed", "samples")
    for key in unread:
        if getattr(args, key):
            mode = "with" if args.oracle else "without"
            raise ValueError(f"secant {mode} --oracle does not read --{key.replace('_', '-')}")
    cfg = GrassmannConfig(d=args.d, N=args.N, r=args.r)
    out: dict = {"d": cfg.d, "N": cfg.N, "r": cfg.r, "degree": args.degree}
    if args.oracle:
        kernel = evaluation_kernel(cfg, args.degree, samples=args.samples or None,
                                   seed=args.seed)
        out["dimension"] = len(kernel)
        with REPORT:
            out["basis"] = _elements_json(kernel)
        out["engine"] = "evaluation-kernel"
        return {"result": out}
    P = plucker_ideal(cfg.M, cfg.d, cache_dir=args.cache_dir,
                      max_bits=args.max_coeff_bits or None)
    comp = secant_ideal(P, cfg.r).component(cfg.d, args.degree)
    out["dimension"] = comp.dim
    with REPORT:
        out["basis"] = list(comp.wire_rows())
    out["engine"] = "join-kernel"
    return _with_cache({"result": out}, P)


def cmd_probe(args) -> dict:
    cfg = GrassmannConfig(d=args.d, N=args.N, r=args.r)
    P = plucker_ideal(cfg.M, cfg.d, cache_dir=args.cache_dir,
                      max_bits=args.max_coeff_bits or None)
    report = degree_probe(cfg, args.max_n, base=P)
    with REPORT:
        lines = [f"{'n':>3} {'dim':>6} {'below':>6} {'new':>5}"]
        for row in report["rows"]:
            lines.append(f"{row['n']:>3} {row['dim']:>6} {row['from_below']:>6} "
                         f"{row['new_generators']:>5}")
        sys.stderr.write("\n".join(lines) + "\n")
    return _with_cache({"result": report}, P)


def cmd_verify(args) -> dict:
    only = args.only.split(",") if args.only else None
    report = run_checks(only=only, seed=args.seed, with_timings=args.timings)
    for chk in report["checks"]:
        status = "pass" if chk["passed"] else "FAIL"
        sys.stderr.write(f"{status:4} {chk['name']}\n")
    return {"result": report}


# ---------------------------------------------------------------------------

# the commands whose --timings report splits their wall time by stage
# (`stages`): block climbs, join kernels, component assembly, report and
# other
_STAGED = ("secant", "probe")

# the least value of each count option; 0 means the default for --samples
# and no guard for --max-coeff-bits
_LEAST = {"degree": 0, "max_n": 0, "samples": 0, "max_coeff_bits": 0, "jobs": 1}


def _check_counts(args) -> None:
    for key, least in _LEAST.items():
        value = getattr(args, key, least)
        if value < least:
            raise ValueError(f"--{key.replace('_', '-')} must be >= {least}, got {value}")


def _check_out(args) -> None:
    # an unwritable --out fails before any work; its error report goes to stdout
    try:
        if args.out:
            open(args.out, "a").close()
    except OSError:
        args.out = None
        raise


# the options given after a subcommand's name.  Each command takes only the
# ones it reads, and `--timings` and `--out` every command; no command reads
# `--jobs`, but `secant` and `probe` take it, because the benchmark's
# workloads (bench/workloads.py) pass --jobs 1 to every command they run
_OPTIONS = {
    "--seed": dict(type=int, default=0, help="root seed for sampled computations"),
    "--cache-dir": dict(help="component cache directory"),
    "--jobs": dict(type=int, default=1, help="accepted and ignored: every command runs "
                                              "in one process"),
    "--max-coeff-bits": dict(type=int, default=0, help="abort when eliminations exceed "
                                                       "this many bits per coefficient"),
    "--timings": dict(action="store_true",
                      help="include timings in reports (breaks byte-for-byte determinism)"),
    "--out": dict(help="write the JSON report to a file instead of stdout"),
}


def _add_common(p: argparse.ArgumentParser, *names: str) -> None:
    for name in (*names, "--timings", "--out"):
        p.add_argument(name, **_OPTIONS[name])


@cache
def build_parser() -> argparse.ArgumentParser:
    """The `psa` parser, built once per process and shared by every `main` call.

    Each `parse_args` fills a fresh namespace from the defaults, so nothing
    one call parses reaches the next.  Each command takes only the shared
    options (`_OPTIONS`) it reads: `--seed` `secant` and `verify`,
    `--cache-dir` and `--max-coeff-bits` `secant` and `probe`, which also
    take the unread `--jobs`, and `--timings` and `--out` every command.
    Any other command refuses them as argparse refuses an unknown option,
    with exit code 2; `secant` refuses, with the same code, the options its
    mode does not read (`cmd_secant`).
    """
    parser = argparse.ArgumentParser(
        prog="psa",
        description="Exact computations in the bigraded shuffle/star algebra "
                    "and for secant ideals of minor-coordinate embeddings.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("star", help="star product of two elements")
    p.add_argument("--lhs", required=True)
    p.add_argument("--rhs", required=True)
    p.add_argument("--g", required=True, help="comma-separated image of the injection")
    p.add_argument("--tensor", action="store_true", help="ordered tensor elements")
    _add_common(p)
    p.set_defaults(fn=cmd_star)

    p = sub.add_parser("shuffle", help="shuffle product of two elements")
    p.add_argument("--lhs", required=True)
    p.add_argument("--rhs", required=True)
    p.add_argument("--split", help="left positions (tensor mode); sums all splits if omitted")
    p.add_argument("--tensor", action="store_true")
    _add_common(p)
    p.set_defaults(fn=cmd_shuffle)

    p = sub.add_parser("pi", help="project a tensor element onto invariants")
    p.add_argument("--input", required=True)
    p.add_argument("--prime", action="store_true", help="unnormalized projection")
    _add_common(p)
    p.set_defaults(fn=cmd_pi)

    p = sub.add_parser("gi", help="symmetrization isomorphism and its inverse")
    p.add_argument("--input", required=True)
    p.add_argument("--direction", choices=("to-tensor", "to-sym"), default="to-tensor")
    _add_common(p)
    p.set_defaults(fn=cmd_gi)

    p = sub.add_parser("delta", help="comultiplication of a symmetric element")
    p.add_argument("--input", required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_delta)

    p = sub.add_parser("divides", help="reading-list divisibility with witness")
    p.add_argument("--lhs", required=True, help="candidate divisor (single monomial)")
    p.add_argument("--rhs", required=True, help="candidate multiple (single monomial)")
    _add_common(p)
    p.set_defaults(fn=cmd_divides)

    p = sub.add_parser("tree", help="labeled-tree encoding of a monomial")
    p.add_argument("input")
    _add_common(p)
    p.set_defaults(fn=cmd_tree)

    p = sub.add_parser("plucker", help="quadric generators")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--N", type=int)
    p.add_argument("--weyman", action="store_true")
    p.add_argument("--basic", action="store_true")
    _add_common(p)
    p.set_defaults(fn=cmd_plucker)

    p = sub.add_parser("secant", help="secant-ideal component (join kernel or oracle)")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--N", type=int)
    p.add_argument("--r", type=int, default=0)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--oracle", action="store_true")
    p.add_argument("--samples", type=int, default=0,
                   help="first-round evaluation points of the oracle, shared by the "
                        "dominant weight blocks it solves (0 = largest block + 24)")
    _add_common(p, "--seed", "--cache-dir", "--jobs", "--max-coeff-bits")
    p.set_defaults(fn=cmd_secant)

    p = sub.add_parser("probe", help="new-generator degrees of a secant ideal")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--N", type=int)
    p.add_argument("--r", type=int, default=0)
    p.add_argument("--max-n", type=int, required=True)
    _add_common(p, "--cache-dir", "--jobs", "--max-coeff-bits")
    p.set_defaults(fn=cmd_probe)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--only", help=f"comma-separated subset of {', '.join(CHECK_NAMES)}")
    _add_common(p, "--seed")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    config = {k: v for k, v in vars(args).items() if k not in ("fn", "out") and v is not None}
    clock = StageClock()
    try:
        _check_counts(args)
        _check_out(args)
        with clock if args.timings else nullcontext():
            body = args.fn(args)
    except CoeffLimitExceeded as exc:
        _emit({"command": args.command, "config": config,
               "aborted": "coefficient-bits-exceeded", "detail": str(exc)}, args)
        return 3
    except (ValueError, OSError) as exc:
        # invalid input (a missing or malformed element file, N not a
        # multiple of d, ...); 2 is argparse's code for a usage error
        _emit({"command": args.command, "config": config, "error": str(exc)}, args)
        return 2
    report = {"command": args.command, "config": config}
    report.update(body)
    if args.timings:
        report["seconds"] = round(time.perf_counter() - t0, 3)
        if args.command in _STAGED:
            report["stage_seconds"] = {k: round(v, 3) for k, v in clock.seconds.items()}
    _emit(report, args)
    if args.command == "verify":
        return 0 if body["result"]["passed"] else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
