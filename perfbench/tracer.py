"""In-process tracing of typovec's public functions.

While a :class:`Tracer` is active, every public module-level function of
every loaded ``typovec`` module is replaced, at every module global that
refers to it (its own module and each ``from .x import f`` site), by a
wrapper that records the call.  Spans are aggregated in memory per name:
call count, inclusive time and self time (inclusive time minus the time
spent in wrapped callees).  ``Workdir.up_to_date``/``write_manifest`` and
the creation of autograd tensors are hooked as well.

A function that does not exist (renamed or deleted) simply has no entry in
``stats``; a function that exists but is never called has zero calls.  An
observer that raises is switched off and named in ``failed_observers``.
"""

from __future__ import annotations

import functools
import sys
import time
import types

METHOD_HOOKS = (
    ("typovec.cli", "Workdir", "up_to_date", "cli.up_to_date"),
    ("typovec.cli", "Workdir", "write_manifest", "cli.write_manifest"),
)


class Tracer:
    """Context manager that installs the wrappers and restores the originals."""

    def __init__(self, observers=None):
        # name -> [calls, inclusive_s, self_s]
        self.stats: dict[str, list] = {}
        # name -> callable(args, kwargs, result), run after the call returns
        self.observers = dict(observers or {})
        self.tensors_created = 0
        # observers that raised, e.g. after a traced function changed its signature
        self.failed_observers: set[str] = set()
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        observer = self.observers.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - children
                if stack:
                    stack[-1] += elapsed
            if observer is not None and name not in self.failed_observers:
                try:
                    observer(args, kwargs, result)
                except (TypeError, ValueError, IndexError, KeyError, AttributeError):
                    self.failed_observers.add(name)
            return result

        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def __enter__(self) -> "Tracer":
        modules = [m for n, m in sorted(sys.modules.items())
                   if n.startswith("typovec.") and m is not None]
        wrappers = {}
        for module in modules:
            short = module.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(module).items():
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__ == module.__name__ and obj.__name__ == attr):
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._patch(module, attr, wrappers[obj])
        for module_name, cls_name, attr, name in METHOD_HOOKS:
            cls = getattr(sys.modules.get(module_name), cls_name, None)
            if cls is not None and hasattr(cls, attr):
                self._patch(cls, attr, self._wrap(name, getattr(cls, attr)))
        tensor_cls = getattr(sys.modules.get("typovec.autograd"), "Tensor", None)
        if tensor_cls is not None:
            original_init = tensor_cls.__init__

            def counting_init(obj, *args, **kwargs):
                self.tensors_created += 1
                original_init(obj, *args, **kwargs)

            self._patch(tensor_cls, "__init__", counting_init)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def calls(self, name: str) -> int | None:
        entry = self.stats.get(name)
        return None if entry is None else entry[0]

    def inclusive_s(self, name: str) -> float | None:
        entry = self.stats.get(name)
        return None if entry is None else entry[1]

    def self_s(self, name: str) -> float | None:
        entry = self.stats.get(name)
        return None if entry is None else entry[2]
