"""Run one coxkl CLI job with per-layer wrappers around library functions.

Usage: python3 benchmark/tracer.py spans|counts OUT.json CLI-ARGS...

The job's stdout and exit code are those of `coxkl.cli.main(CLI-ARGS)`.  In
`spans` mode every function in SPANS is wrapped in a timer; each records
its calls and its self time (span time minus the time of wrapped calls made
inside it).  In `counts` mode only the HOT methods are wrapped, with a bare
call counter: they run millions of times, and timing them would inflate the
self time of every span that calls them.  The totals stay in memory and are
written to OUT.json when the job ends.

Modules import names directly (`cli` binds `kl_wgraph`, `blocks` binds
`laurent_solve_kernel_matrices`), so a module function is replaced at every
binding in every loaded `coxkl` module; a method is replaced on its class,
under every name bound to it there.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter

# metric prefix -> (module under coxkl, attribute path)
SPANS = {
    "coxeter.build_group": ("coxeter", "build_group"),
    "coxeter.bruhat_interval": ("coxeter", "GroupEngine.bruhat_interval"),
    "kl.critical_pair": ("kl", "KLContext.critical_pair"),
    "kl.pstar": ("kl", "KLContext.pstar"),
    "kl.mu": ("kl", "KLContext.mu"),
    "kl.h_structure": ("kl", "KLContext.h_structure"),
    "kl.c_basis": ("kl", "KLContext.c_basis"),
    "laurent.LaurentPoly.divexact": ("laurent", "LaurentPoly.divexact"),
    "laurent.LaurentMatrix.__matmul__": ("laurent", "LaurentMatrix.__matmul__"),
    "laurent.format_laurent": ("laurent", "format_laurent"),
    "linalg.laurent_rank": ("linalg", "laurent_rank"),
    "linalg.laurent_solve_kernel_matrices": ("linalg", "laurent_solve_kernel_matrices"),
    "wgraph.Representation.character": ("wgraph", "Representation.character"),
    "wgraph.kl_wgraph": ("wgraph", "kl_wgraph"),
    "wgraph.kl_left_cell_wgraphs": ("wgraph", "kl_left_cell_wgraphs"),
    "wgraph.validate_wgraph": ("wgraph", "validate_wgraph"),
    "balance.gram_invariant_form": ("balance", "gram_invariant_form"),
    "balance.balance": ("balance", "balance"),
    "balance.leading_coefficients": ("balance", "leading_coefficients"),
    "balance.a_value": ("balance", "a_value"),
    "blocks.intertwiner_space": ("blocks", "intertwiner_space"),
    "blocks.omega_iso_certificate": ("blocks", "omega_iso_certificate"),
    "asymptotic.irreducible_cell_reps": ("asymptotic", "irreducible_cell_reps"),
    "asymptotic.gamma_n_table": ("asymptotic", "gamma_n_table"),
    "asymptotic.cell_basis": ("asymptotic", "cell_basis"),
    "asymptotic.verify_cell_axioms": ("asymptotic", "verify_cell_axioms"),
    "cli.main": ("cli", "main"),
}

HOT = {
    "coxeter.Element.__mul__": ("coxeter", "Element.__mul__"),
    "coxeter.bruhat_le": ("coxeter", "GroupEngine.bruhat_le"),
    "laurent.LaurentPoly.__mul__": ("laurent", "LaurentPoly.__mul__"),
}

ELIM = "linalg.laurent_solve_kernel_matrices"


class Tracer:
    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [calls, self seconds]
        self.counts: dict[str, int] = {}
        self.elim_entries = 0
        self._stack = [0.0]  # wrapped time spent inside each open span

    def span(self, name, fn):
        rec = self.spans[name] = [0, 0.0]
        stack = self._stack

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                rec[0] += 1
                rec[1] += dt - stack.pop()
                stack[-1] += dt

        if name == ELIM:
            timed = wrapper

            def wrapper(blocks, shape, *args, **kwargs):
                # rows x cols of the stacked system the elimination sees
                self.elim_entries += sum(b.rows for b in blocks) * shape[0] * shape[1]
                return timed(blocks, shape, *args, **kwargs)

        return wrapper

    def counter(self, name, fn):
        self.counts[name] = 0
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def install(targets: dict, make_wrapper) -> None:
    modules = [m for n, m in list(sys.modules.items())
               if n == "coxkl" or n.startswith("coxkl.")]
    for name, (mod, path) in targets.items():
        owner = importlib.import_module("coxkl." + mod)
        *cls, attr = path.split(".")
        # a method's other bindings are aliases on its class (`__rmul__ = __mul__`)
        scopes = [getattr(owner, cls[0])] if cls else modules
        orig = vars(scopes[0])[attr] if cls else getattr(owner, attr)
        wrapper = make_wrapper(name, orig)
        for scope in scopes:
            for key in [k for k, v in vars(scope).items() if v is orig]:
                setattr(scope, key, wrapper)


def main() -> int:
    mode, out_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    t0 = perf_counter()
    import coxkl.cli
    import_s = perf_counter() - t0
    tracer = Tracer()
    if mode == "spans":
        install(SPANS, tracer.span)
    elif mode == "counts":
        install(HOT, tracer.counter)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    try:
        rc = coxkl.cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    sys.stdout.flush()
    with open(out_path, "w") as f:
        json.dump({
            "import_s": import_s,
            "spans": tracer.spans,
            "counts": tracer.counts,
            "elim_entries": tracer.elim_entries,
        }, f)
    return rc


if __name__ == "__main__":
    sys.exit(main())
