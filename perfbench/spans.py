"""In-memory span tracing around calls into linesat, from outside it.

Wrappers replace module attributes, so they see exactly the calls that
look a name up at call time: `is_metric_hypergraph` calling `propagate`
through `linesat.realizability`'s globals, or the CLI calling
`formats.loads_matrix`.  Only public names are wrapped.  A name that has
gone is recorded as absent, not an error, so the trace keeps working
while later changes replace functions such as `linprog_max`.
"""

import inspect
import json
import time
from collections import Counter

SPAN_ID, PARENT, NAME, LAYER, START, END, INFO = range(7)

# (module, public names) wrapped in every traced run.  `rank` is only
# counted: a span per call would cost more than the work it measures.
REALIZABILITY_NAMES = (
    "is_metric_hypergraph",
    "minimal_nonmetric_audit",
    "propagate",
    "lp_max_slack",
    "linprog_max",
    "solve_linear_system",
    "validate_metric",
    "degenerate_hypergraph",
)
SATURATION_NAMES = (
    "min_saturation_search",
    "exhaustive_size_check",
    "is_weakly_saturated",
    "weak_saturation_closure",
    "verify_certificate",
    "star_construction",
)
LINES_NAMES = ("is_weakly_saturated", "reconstruct_line", "check_order")
COUNTED = (("linesat.realizability", "rank"),)


def _info_linprog(args, kwargs, result):
    c = args[0] if args else kwargs["c"]
    ge = args[1] if len(args) > 1 else kwargs.get("ge_rows", ())
    eq = args[3] if len(args) > 3 else kwargs.get("eq_rows", ())
    return {"rows": len(ge) + len(eq), "cols": len(c)}


def _info_propagate(args, kwargs, result):
    return {"pruned": not result}


def _info_verdict(args, kwargs, result):
    return {"explored": result.explored}


def _info_closure(args, kwargs, result):
    h = args[0] if args else kwargs["h"]
    return {"n": h.n, "steps": len(result.certificate.steps)}


def _info_certificate(args, kwargs, result):
    cert = args[0] if args else kwargs["cert"]
    return {"steps": len(cert.steps)}


def _info_bytes(args, kwargs, result):
    return {"bytes": len(result)}


INFO_OF = {
    "linprog_max": _info_linprog,
    "propagate": _info_propagate,
    "is_metric_hypergraph": _info_verdict,
    "weak_saturation_closure": _info_closure,
    "verify_certificate": _info_certificate,
}


class Tracer:
    """Spans with parent links, kept in memory until `write`."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- recording -------------------------------------------------------

    def open(self, name: str, layer: str) -> list:
        rec = [
            len(self.spans),
            self._stack[-1] if self._stack else None,
            name,
            layer,
            time.perf_counter(),
            None,
            None,
        ]
        self.spans.append(rec)
        self._stack.append(rec[SPAN_ID])
        return rec

    def close(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self._stack.pop()

    def _spanning(self, fn, name, layer, info):
        def wrapper(*args, **kwargs):
            rec = self.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(rec)
            if info is not None:
                try:
                    rec[INFO] = info(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass
            return result

        return wrapper

    def _counting(self, fn, key):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installing ------------------------------------------------------

    def wrap(self, module, name: str, count_only: bool = False) -> None:
        where = f"{module.__name__}.{name}"
        fn = getattr(module, name, None)
        if not inspect.isfunction(fn) or inspect.isgeneratorfunction(fn):
            self.absent.append(where)
            return
        layer = fn.__module__.rsplit(".", 1)[-1]
        if count_only:
            wrapper = self._counting(fn, where)
        else:
            info = INFO_OF.get(name)
            if info is None and module.__name__ == "linesat.io" and name.startswith("dumps"):
                info = _info_bytes
            wrapper = self._spanning(fn, name, layer, info)
        setattr(module, name, wrapper)
        self._undo.append((module, name, fn))

    def install(self) -> None:
        """Wrap the fixed set of names; the same set on every workload."""
        import importlib

        def module(path):
            try:
                return importlib.import_module(path)
            except ImportError:
                self.absent.append(path)
                return None

        for path, names in (
            ("linesat.realizability", REALIZABILITY_NAMES),
            ("linesat.saturation", SATURATION_NAMES),
            ("linesat.lines", LINES_NAMES),
        ):
            mod = module(path)
            if mod is not None:
                for name in names:
                    self.wrap(mod, name)
        for path, name in COUNTED:
            mod = module(path)
            if mod is not None:
                self.wrap(mod, name, count_only=True)
        cli = module("linesat.cli")
        if cli is None:
            return
        for name, fn in sorted(vars(cli).items()):
            if (
                not name.startswith("_")
                and name != "main"
                and inspect.isfunction(fn)
                and fn.__module__.startswith("linesat.")
            ):
                self.wrap(cli, name)
        formats = getattr(cli, "formats", None)
        if formats is None:
            self.absent.append("linesat.cli.formats")
            return
        for name, fn in sorted(vars(formats).items()):
            if (
                not name.startswith("_")
                and inspect.isfunction(fn)
                and fn.__module__.startswith("linesat.")
            ):
                self.wrap(formats, name)

    def uninstall(self) -> None:
        while self._undo:
            module, name, fn = self._undo.pop()
            setattr(module, name, fn)

    # -- reading ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [rec[END] - rec[START] for rec in self.spans]
        for rec in self.spans:
            if rec[PARENT] is not None:
                own[rec[PARENT]] -= rec[END] - rec[START]
        return own

    def ancestors(self, rec):
        parent = rec[PARENT]
        while parent is not None:
            up = self.spans[parent]
            yield up
            parent = up[PARENT]

    def write(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
