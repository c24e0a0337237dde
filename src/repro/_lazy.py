"""Package re-exports that import their submodule on first use (PEP 562).

A re-exporting ``__init__`` declares one table -- submodule -> the names
it re-exports from it -- and derives everything else from it::

    _EXPORTS = {"sim.config": ("SimConfig",), ...}
    __all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

Importing the package then loads no submodule.  A name resolves the
first time it is read, through the module-level ``__getattr__``, and is
cached in the package's namespace, so every later read is an ordinary
global lookup.  An attribute that names a submodule imports it, as an
eager ``__init__`` would already have done.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable, Dict, List, MutableMapping, Tuple

#: submodule (relative to the package) -> the names re-exported from it
ExportTable = Dict[str, Tuple[str, ...]]


def lazy_exports(
    namespace: MutableMapping[str, Any], table: ExportTable, *defined: str
) -> Tuple[List[str], Callable[[str], Any], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for the package whose
    ``globals()`` is ``namespace``; ``defined`` names the public names
    the ``__init__`` defines itself."""
    package = namespace["__name__"]
    owner = {name: module for module, names in table.items()
             for name in names}

    def __getattr__(name: str) -> Any:
        module = owner.get(name)
        if module is not None:
            value = getattr(import_module(f"{package}.{module}"), name)
        else:
            try:
                value = import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}"
                ) from None
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted({*namespace, *owner})

    return [*owner, *defined], __getattr__, __dir__
