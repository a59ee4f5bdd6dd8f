"""Import ``gvlab`` from the working tree's ``src/`` without editing it.

A plain ``import gvlab`` is tried first.  Python 3.11 dataclasses reject a
``MappingProxyType`` class default as mutable (``augment.AugmentDistribution``
has one), so when, and only when, the plain import raises that error the
package is imported again with ``dataclasses.dataclass`` temporarily wrapped:
each ``MappingProxyType`` default is handed over through a
``default_factory`` that returns the very same object.  Instances are then
built exactly as Python 3.10 and 3.12 build them from the unmodified source.
Once the source itself no longer uses such a default the plain import
succeeds and the adapter never runs.
"""

from __future__ import annotations

import dataclasses
import importlib
import re
import sys
from pathlib import Path
from types import MappingProxyType, ModuleType

PLAIN = "plain"
ADAPTER = "mappingproxy-default-adapter"

_MAPPINGPROXY_DEFAULT = re.compile(r"mutable default .*mappingproxy")


class LoadError(RuntimeError):
    """The package is missing from the tree or failed to import."""


def _purge() -> None:
    for name in [n for n in sys.modules if n == "gvlab" or n.startswith("gvlab.")]:
        del sys.modules[name]


def _proxy_defaults_as_factories(real_dataclass):
    def convert(cls):
        for name in getattr(cls, "__annotations__", {}):
            value = cls.__dict__.get(name)
            if isinstance(value, MappingProxyType):
                setattr(cls, name, dataclasses.field(default_factory=lambda v=value: v))
        return cls

    def dataclass(cls=None, /, **kwargs):
        if cls is None:
            return lambda c: real_dataclass(convert(c), **kwargs)
        return real_dataclass(convert(cls), **kwargs)

    return dataclass


def load(src: Path) -> tuple[ModuleType, str]:
    """Import ``gvlab`` from ``src`` and return it with the import path used."""
    if not (src / "gvlab" / "__init__.py").is_file():
        raise LoadError(f"no gvlab package under {src}")
    sys.path.insert(0, str(src))
    _purge()
    try:
        gvlab, how = importlib.import_module("gvlab"), PLAIN
    except ValueError as err:
        if not _MAPPINGPROXY_DEFAULT.search(str(err)):
            raise
        _purge()
        real = dataclasses.dataclass
        dataclasses.dataclass = _proxy_defaults_as_factories(real)
        try:
            gvlab, how = importlib.import_module("gvlab"), ADAPTER
        finally:
            dataclasses.dataclass = real
    importlib.import_module("gvlab.cli")
    location = Path(gvlab.__file__).resolve()
    if src.resolve() not in location.parents:
        raise LoadError(f"gvlab was imported from {location}, not from {src}")
    return gvlab, how
