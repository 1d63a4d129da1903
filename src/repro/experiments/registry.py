"""Discoverable registry of the paper's experiments.

Each figure/table module registers its :class:`~.base.Experiment`
subclass with the :func:`register` decorator; consumers (the
:mod:`repro.api` facade, the CLI runner, tests) look experiments up by
name instead of importing figure modules directly. Registration lives
next to the experiment it describes, so adding a figure is one
decorator, not an edit in two files.
"""

from __future__ import annotations

from ..errors import ConfigurationError
from .base import Experiment

_REGISTRY: dict[str, type[Experiment]] = {}


def register(cls: type[Experiment]) -> type[Experiment]:
    """Class decorator registering an Experiment under ``cls.name``."""
    if not isinstance(cls, type) or not issubclass(cls, Experiment):
        raise ConfigurationError(
            f"@register expects an Experiment subclass, got {cls!r}"
        )
    name = cls.name
    if not name:
        raise ConfigurationError(
            f"{cls.__name__} must set a non-empty 'name' to be registered"
        )
    existing = _REGISTRY.get(name)
    if existing is not None and existing is not cls:
        raise ConfigurationError(
            f"experiment name {name!r} already registered by "
            f"{existing.__name__}"
        )
    _REGISTRY[name] = cls
    return cls


def names() -> list[str]:
    """Registered experiment names, sorted."""
    return sorted(_REGISTRY)


def get_class(name: str) -> type[Experiment]:
    """The registered Experiment class for ``name``."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown experiment {name!r} (choose from {names()})"
        ) from None


def create(name: str, **params) -> Experiment:
    """A fresh default-parameter instance (``params`` override)."""
    return get_class(name)(**params)
