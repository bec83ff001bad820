"""Run the liouville-sums CLI in-process with timing hooks around each layer.

Usage: python3 perfbench/traced_cli.py SPANS_JSON <liouville-sums arguments>

Each hook wraps one function of a package module from outside the package:
every attribute of a loaded `liouville_sums` module that is that function
(including names imported with `from ... import`) is replaced by a wrapper
that records a span and its counters. A call into a layer that is already
open passes straight through, so nested entries (stream_lambda calling
stream_lambda_range) are counted once. Spans stay in memory and are written
to SPANS_JSON when the command returns.

A hook whose function no longer exists, or that is never called, leaves a
note and its metrics read 0, so refactors of the package do not break the
traced run.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

import liouville_sums.cli as cli


def _block_ints(block) -> int:
    return len(block.values)


@dataclass(frozen=True)
class Hook:
    """Wrap module.attr in a span named `layer`.

    counters map a counter name to a function of the call's positional
    arguments, or of each yielded item when `iterates` is set.
    """

    layer: str
    module: str
    attr: str
    counters: dict[str, Callable] = field(default_factory=dict)
    iterates: bool = False


_ONE = lambda _: 1  # noqa: E731

HOOKS = (
    Hook("partial_sum.scan", "partial_sum", "scan_sign"),
    Hook("liouville.sieve", "liouville", "stream_lambda_range",
         {"liouville.blocks": _ONE, "liouville.ints": _block_ints}, iterates=True),
    Hook("liouville.sieve", "liouville", "stream_lambda",
         {"liouville.blocks": _ONE, "liouville.ints": _block_ints}, iterates=True),
    Hook("partial_sum.accumulate", "partial_sum", "accumulate",
         {"partial_sum.accumulate_ints": lambda args: _block_ints(args[1])}),
    Hook("partial_sum.io", "partial_sum", "_emit_trace_rows"),
    Hook("partial_sum.io", "partial_sum", "_write_checkpoint", {"partial_sum.checkpoints": _ONE}),
    Hook("zeros.load", "zeros", "bundled_zero_table"),
    Hook("zeros.load", "zeros", "load_zeros"),
    Hook("zeta", "zeta", "zeta", {"zeta.calls": _ONE}),
    Hook("zeta", "zeta", "zeta_prime", {"zeta.calls": _ONE}),
    Hook("zeta", "zeta", "zeta_with_prime", {"zeta.calls": _ONE}),
    Hook("aux_poly.build", "aux_poly", "build_polynomial"),
    Hook("aux_poly.residue", "aux_poly", "residue_rn", {"aux_poly.residues": _ONE}),
    Hook("aux_poly.scan", "aux_poly", "scan_u"),
)


class Tracer:
    """In-memory spans [layer, parent index or -1, start, end] and counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.notes: list[str] = []
        self._stack: list[int] = []
        self._open: set[str] = set()

    def begin(self, layer: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, parent, time.perf_counter(), 0.0])
        self._stack.append(index)
        self._open.add(layer)
        return index

    def end(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self._stack.pop()
        self._open.discard(self.spans[index][0])

    def is_open(self, layer: str) -> bool:
        return layer in self._open

    def count(self, hook: Hook, subject) -> None:
        for name, fn in hook.counters.items():
            try:
                self.counts[name] = self.counts.get(name, 0) + fn(subject)
            except (AttributeError, IndexError, TypeError) as exc:
                note = f"counter {name} of {hook.module}.{hook.attr} failed: {exc!r}"
                if note not in self.notes:
                    self.notes.append(note)


def _wrap(tracer: Tracer, hook: Hook, fn: Callable, calls: dict) -> Callable:
    key = (hook.module, hook.attr)

    if hook.iterates:
        def iterate(it):
            while True:
                if tracer.is_open(hook.layer):
                    item = next(it, StopIteration)
                else:
                    span = tracer.begin(hook.layer)
                    try:
                        item = next(it, StopIteration)
                    finally:
                        tracer.end(span)
                    if item is not StopIteration:
                        tracer.count(hook, item)
                if item is StopIteration:
                    return
                yield item

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return iterate(iter(fn(*args, **kwargs)))
    else:
        def wrapper(*args, **kwargs):
            calls[key] += 1
            if tracer.is_open(hook.layer):
                return fn(*args, **kwargs)
            span = tracer.begin(hook.layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(span)
                tracer.count(hook, args)

    return wrapper


def install(tracer: Tracer, hooks=HOOKS) -> dict:
    """Install the hooks; return their call counters."""
    modules = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "liouville_sums" and m]
    calls: dict = {}
    for hook in hooks:
        owner = sys.modules.get(f"liouville_sums.{hook.module}")
        fn = getattr(owner, hook.attr, None)
        if not callable(fn):
            tracer.notes.append(f"hook {hook.module}.{hook.attr}: not found, its metrics read 0")
            continue
        cache_clear = getattr(fn, "cache_clear", None)
        if cache_clear is not None:
            cache_clear()
        calls[(hook.module, hook.attr)] = 0
        wrapper = _wrap(tracer, hook, fn, calls)
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, name, wrapper)
    return calls


def main(argv: list[str]) -> int:
    out, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    calls = install(tracer)
    try:
        return cli.main(cli_args)
    finally:
        for (module, attr), n in calls.items():
            if n == 0:
                tracer.notes.append(f"hook {module}.{attr}: never called, its metrics read 0")
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts, "notes": tracer.notes}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
