"""Command-line front end producing reproducible verification artifacts.

Subcommands:
    verify    scan L(X, alpha) for sign violations over an X range
    aux       build the auxiliary polynomial and scan it over a u range
    residues  print the constant term and the first few residues
    product   evaluate the Euler product for alpha > 1

Exit codes (stable contract):
    0   success (for verify: zero violations and zero indeterminates)
    1   runtime failure (bad files, invalid parameters, internal errors)
    2   command-line usage error (argparse)
    3   verify found at least one violation
    4   verify found indeterminate values but no violation

Structured reports are JSON (sorted keys; the generated_at timestamp is the
only nondeterministic field).  Traces are CSV at full round-trip precision.
Config files are key=value lines whose values are Python literals; values on
the command line override values from the file, which override built-in
defaults.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import dataclasses
import json
import sys
import time
import typing
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from . import __version__
from .aux_poly import build_polynomial, residue_batch, residue_r0, scan_u
from .liouville import DEFAULT_SEGMENT_SIZE
from .partial_sum import (
    DEFAULT_CHECKPOINT_EVERY,
    DEFAULT_TRACE_EVERY,
    Sign,
    euler_product_value,
    evaluate,
    scan_sign,
)
from .zeros import bundled_zero_table, load_zeros

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2  # raised by argparse itself
EXIT_VIOLATION = 3
EXIT_INDETERMINATE = 4

REPORT_SCHEMA_VERSION = 1

#: Keys that config files written by earlier versions hold but that select
#: nothing any more; they are read and ignored.  fast_rotation chose between
#: two aux grid evaluators, of which one is left.
_RETIRED_KEYS = frozenset({"fast_rotation"})


@dataclass
class RunConfig:
    """All tunable parameters, with documented defaults.

    Fields not used by a given command are ignored by it.  The config
    round-trips losslessly through its key=value text form.
    """

    #: exponent of the weighted sum (verify/aux/residues); product needs > 1
    alpha: float = 0.5
    #: first X of a verify scan
    x_from: int = 1
    #: last X of a verify scan
    x_to: int = 1000
    #: claimed sign over the scan range: nonpositive or nonnegative
    sign: str = "nonpositive"
    #: sieve block size
    segment_size: int = DEFAULT_SEGMENT_SIZE
    #: verify trace sampling stride (one CSV row per this many X)
    trace_every: int = DEFAULT_TRACE_EVERY
    #: checkpoint interval in integers processed
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY
    #: zero-table path; empty string selects the bundled table
    zeros_path: str = ""
    #: frequency cutoff T; None selects the 100th loaded ordinate
    cutoff: Optional[float] = None
    #: aux scan range and grid step
    u_from: float = 0.0
    u_to: float = 100.0
    u_step: float = 0.01
    #: number of residues to print (residues command)
    count: int = 10
    #: largest prime in the Euler product
    prime_limit: int = 1000000
    #: when > 0, product also reports the direct sum up to this X
    compare_sum: int = 0

    def to_text(self) -> str:
        lines = [f"# liouville-sums config v{REPORT_SCHEMA_VERSION}"]
        for f in dataclasses.fields(self):
            lines.append(f"{f.name}={getattr(self, f.name)!r}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str, origin: str = "<config>") -> "RunConfig":
        known = typing.get_type_hints(cls)
        values: dict = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{origin}:{lineno}: expected key=value, got {line!r}")
            key, _, val = line.partition("=")
            key = key.strip()
            if key in _RETIRED_KEYS:
                continue
            if key not in known:
                raise ValueError(f"{origin}:{lineno}: unknown key {key!r}")
            try:
                values[key] = _typed(key, _parse_literal(val.strip()), known[key])
            except ValueError as exc:
                raise ValueError(f"{origin}:{lineno}: {exc}") from None
        return cls(**values)


def _parse_literal(text: str):
    """The Python literal text spells, as --write-config writes values.

    Bare inf and nan are floats, and any other text that is not a literal
    (such as sign=nonnegative) is read as that text.
    """
    try:
        return ast.literal_eval(text)
    except (ValueError, TypeError, SyntaxError, MemoryError, RecursionError):
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _typed(key: str, value, hint):
    """value if it fits the field's declared type; ints given to float fields become floats.

    bool is not taken as an int, and only Optional fields take None.
    """
    optional = typing.get_origin(hint) is typing.Union  # Optional[X] is Union[X, None]
    if optional and value is None:
        return None
    want = typing.get_args(hint)[0] if optional else hint
    accepted = (int, float) if want is float else want
    if isinstance(value, bool) or not isinstance(value, accepted):
        also = " or None" if optional else ""
        raise ValueError(f"{key} must be of type {want.__name__}{also}, got {value!r}")
    return float(value) if want is float else value


def _write_json_report(path: Optional[str], kind: str, cfg: RunConfig, **fields) -> None:
    """Write fields under the report envelope to path; no-op without a path."""
    if not path:
        return
    payload = {
        "kind": kind,
        "config": dataclasses.asdict(cfg),
        **fields,
        "schema_version": REPORT_SCHEMA_VERSION,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _load_table(cfg: RunConfig):
    if cfg.zeros_path:
        return load_zeros(cfg.zeros_path)
    return bundled_zero_table()


def cmd_verify(cfg: RunConfig, args: argparse.Namespace) -> int:
    """Run a sign scan and write its artifacts; exit 0 only on a clean scan."""
    claimed = Sign(cfg.sign)
    t0 = time.monotonic()
    result = scan_sign(
        cfg.x_from,
        cfg.x_to,
        cfg.alpha,
        claimed,
        segment_size=cfg.segment_size,
        trace_path=args.trace,
        trace_every=cfg.trace_every,
        checkpoint_path=args.checkpoint,
        checkpoint_every=cfg.checkpoint_every,
    )
    elapsed = time.monotonic() - t0
    _write_json_report(args.report, "verify", cfg, report=result.to_dict())
    print(
        f"verify alpha={cfg.alpha} X in [{cfg.x_from}, {cfg.x_to}] "
        f"claimed {claimed.value}: "
        f"{'OK' if result.ok() else 'FAILED'} "
        f"({result.violations} violations, {result.indeterminate} indeterminate) "
        f"in {elapsed:.2f}s"
    )
    print(
        f"  min {result.min_value!r} at X={result.argmin}; "
        f"max {result.max_value!r} at X={result.argmax}"
    )
    if result.first_violation is not None:
        print(f"  first violation at X={result.first_violation}")
        return EXIT_VIOLATION
    if result.indeterminate:
        return EXIT_INDETERMINATE
    return EXIT_OK


def cmd_aux(cfg: RunConfig, args: argparse.Namespace) -> int:
    """Build the auxiliary polynomial, scan it, and write artifacts."""
    table = _load_table(cfg)
    cutoff = cfg.cutoff
    if cutoff is None:
        cutoff = table.gammas[min(100, len(table)) - 1]
    poly = build_polynomial(table, cutoff, cfg.alpha)
    with open(args.trace, "w", encoding="utf-8") if args.trace else contextlib.nullcontext() as trace_fh:
        result = scan_u(poly, cfg.u_from, cfg.u_to, cfg.u_step, trace=trace_fh)
    _write_json_report(
        args.report, "aux-scan", cfg, n_terms=poly.gammas.size, r0=poly.r0, report=result.to_dict()
    )
    print(
        f"aux alpha={cfg.alpha} T={cutoff} ({poly.gammas.size} terms), "
        f"u in [{cfg.u_from}, {cfg.u_to}] step {cfg.u_step}: {result.n_points} points"
    )
    print(f"  max {result.maximum.value!r} at u={result.maximum.u!r} (X ~ {result.maximum.x_equiv!r})")
    print(f"  min {result.minimum.value!r} at u={result.minimum.u!r} (X ~ {result.minimum.x_equiv!r})")
    print(f"  sign changes: {len(result.sign_changes)}")
    for lo, hi in result.sign_changes[:20]:
        print(f"    ({lo!r}, {hi!r})")
    if len(result.sign_changes) > 20:
        print(f"    ... {len(result.sign_changes) - 20} more")
    return EXIT_OK


def cmd_residues(cfg: RunConfig, args: argparse.Namespace) -> int:
    """Print r0 and the first residues with error estimates.

    Every residue is computed before anything is printed, so a table entry
    that is not a zero ordinate leaves stdout empty.
    """
    if cfg.count < 1:
        raise ValueError(f"residue count must be >= 1, got {cfg.count}")
    table = _load_table(cfg)
    if cfg.count > len(table):
        raise ValueError(
            f"requested {cfg.count} residues but the table holds {len(table)} zeros"
        )
    r0 = residue_r0(cfg.alpha)
    gammas = table.gammas[: cfg.count]
    residues, errs = residue_batch(gammas, cfg.alpha)
    terms = list(zip(gammas, residues.tolist(), errs.tolist()))
    rows = [{"n": n, "gamma": g, "re": r.real, "im": r.imag, "err": e} for n, (g, r, e) in enumerate(terms, 1)]
    _write_json_report(args.report, "residues", cfg, r0=r0, residues=rows)
    print(f"alpha = {cfg.alpha}")
    print(f"r0 = {r0!r}")
    for n, (g, r, e) in enumerate(terms, 1):
        print(f"r{n} (gamma={g!r}) = {r.real!r} {'+' if r.imag >= 0 else '-'} {abs(r.imag)!r}i  (err < {e:.2e})")
    return EXIT_OK


def cmd_product(cfg: RunConfig, args: argparse.Namespace) -> int:
    """Evaluate the Euler product, optionally against the direct sum."""
    if cfg.compare_sum < 0:
        raise ValueError(
            f"compare-sum must be >= 1, or 0 to skip the comparison; got {cfg.compare_sum}"
        )
    value, tail = euler_product_value(cfg.alpha, cfg.prime_limit)
    print(f"product over primes <= {cfg.prime_limit} at alpha={cfg.alpha}:")
    print(f"  value = {value!r}")
    print(f"  tail bound (log scale) = {tail!r}")
    direct_sum = None
    if cfg.compare_sum > 0:
        sv, se = evaluate(cfg.compare_sum, cfg.alpha, cfg.segment_size)
        direct_sum = {"x": cfg.compare_sum, "value": sv, "err_bound": se}
        print(f"  direct sum to X={cfg.compare_sum}: {sv!r} (err bound {se!r})")
        print(f"  |product - sum| = {abs(value - sv)!r}")
    _write_json_report(
        args.report, "product", cfg, value=value, tail_bound=tail, direct_sum=direct_sum
    )
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liouville-sums",
        description="Sign-constancy verification for weighted Liouville sums.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--alpha", type=float)
    common.add_argument("--config", metavar="FILE", help="key=value config file")
    common.add_argument("--write-config", metavar="FILE", help="write the effective config and exit")
    common.add_argument("--report", metavar="FILE", help="write a JSON report")

    def add(name: str, run, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help, parents=[common])
        p.set_defaults(run=run)
        return p

    pv = add("verify", cmd_verify, "scan L(X, alpha) for sign violations")
    pv.add_argument("--from", dest="x_from", type=int, metavar="X")
    pv.add_argument("--to", dest="x_to", type=int, metavar="X")
    pv.add_argument("--sign", choices=[s.value for s in Sign])
    pv.add_argument("--segment-size", dest="segment_size", type=int)
    pv.add_argument("--trace", metavar="FILE", help="CSV trace of sampled X")
    pv.add_argument("--trace-every", dest="trace_every", type=int)
    pv.add_argument("--checkpoint", metavar="FILE", help="JSON checkpoint for resumable scans")
    pv.add_argument("--checkpoint-every", dest="checkpoint_every", type=int)

    pa = add("aux", cmd_aux, "scan the auxiliary polynomial over u")
    pa.add_argument("--zeros", dest="zeros_path", metavar="FILE", help="zero table (default: bundled)")
    pa.add_argument("--cutoff", "-T", dest="cutoff", type=float, help="frequency cutoff T")
    pa.add_argument("--u-from", dest="u_from", type=float)
    pa.add_argument("--u-to", dest="u_to", type=float)
    pa.add_argument("--step", dest="u_step", type=float)
    pa.add_argument("--trace", metavar="FILE", help="CSV trace of every grid point")

    pr = add("residues", cmd_residues, "print r0 and the first residues")
    pr.add_argument("--count", type=int)
    pr.add_argument("--zeros", dest="zeros_path", metavar="FILE")

    pp = add("product", cmd_product, "Euler product for alpha > 1")
    pp.add_argument("--prime-limit", dest="prime_limit", type=int)
    pp.add_argument("--compare-sum", dest="compare_sum", type=int, metavar="X")
    pp.add_argument("--segment-size", dest="segment_size", type=int)
    return parser


def _merge_config(args: argparse.Namespace) -> RunConfig:
    """defaults < config file < explicit command-line values."""
    cfg = RunConfig()
    if args.config:
        path = Path(args.config)
        cfg = RunConfig.from_text(path.read_text(encoding="utf-8"), origin=str(path))
    overrides = {
        f.name: getattr(args, f.name)
        for f in dataclasses.fields(RunConfig)
        if getattr(args, f.name, None) is not None
    }
    return dataclasses.replace(cfg, **overrides)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _merge_config(args)
        if args.write_config:
            Path(args.write_config).write_text(cfg.to_text(), encoding="utf-8")
            print(f"wrote config to {args.write_config}")
            return EXIT_OK
        return args.run(cfg, args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
