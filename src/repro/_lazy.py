"""Lazy re-exports for package ``__init__`` modules (PEP 562).

A package lists the names it re-exports, grouped by the submodule that
defines them, and binds the module-level ``__getattr__`` and ``__dir__``
this helper returns.  A name's submodule is imported the first time the
name is looked up, so ``import repro`` loads no submodule at all, and
``from repro.sim import ExperimentRunner`` loads only what
:mod:`repro.sim.experiment` needs.  The value is then bound on the
package, so later lookups are plain attribute reads.

A name that is also a submodule's name (``repro.core.pcap``,
``repro.sim.sweep``) cannot be lazy: importing the submodule binds the
package attribute to the module.  Such a package imports that name
eagerly instead, after which the attribute keeps the re-exported value.
"""

from __future__ import annotations

import sys
from importlib.util import resolve_name
from typing import Any, Callable


def lazy_exports(
    package: str, exports: dict[str, tuple[str, ...]]
) -> tuple[list[str], Callable[[str], Any], Callable[[], list[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``.

    ``exports`` maps each submodule, relative to ``package`` (``".filter"``
    or ``".cache"``), to the names it provides.  ``__all__`` lists every
    exported name.  An unknown name raises :class:`AttributeError`, which
    also lets ``from package import submodule`` fall through to the
    import system as usual.
    """
    origin = {
        name: resolve_name(module, package)
        for module, names in exports.items()
        for name in names
    }

    def __getattr__(name: str) -> Any:
        module = origin.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        # ``__import__``, unlike ``importlib.import_module``, is timed by
        # ``python -X importtime`` like an import statement.
        __import__(module)
        value = getattr(sys.modules[module], name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return sorted(origin), __getattr__, __dir__
