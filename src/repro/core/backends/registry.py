"""Name-based registry of secure counting backends.

The orchestrator never constructs a concrete counter itself; it asks this
registry to build whichever backend the configuration names.  Built-in
backends self-register at import time (importing :mod:`repro.core.backends`
is enough); third-party code registers its own with the same decorator::

    from repro.core.backends import TriangleCounterBackend, register_backend
    from repro.crypto.ring import ring_of

    @register_backend("sparse")
    class SparseTriangleCounter(TriangleCounterBackend):
        @classmethod
        def from_config(cls, config, dealer_rng=None, views=None):
            return cls(ring=ring_of(config), views=views)
        ...

    CargoConfig(counting_backend="sparse")  # now resolves

A registration can be either a :class:`TriangleCounterBackend` subclass
(built via its ``from_config`` classmethod) or a plain factory callable with
the signature ``factory(config, dealer_rng=None, views=None)``; the latter
lets one class serve several named execution modes (e.g. ``faithful`` and
``batched``).
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, List, Optional, Union

from repro.core.backends.base import TriangleCounterBackend
from repro.crypto.views import ViewRecorder
from repro.exceptions import ConfigurationError
from repro.utils.rng import RandomState

#: A registered entry: a backend class or a ``(config, dealer_rng, views)`` factory.
BackendFactory = Callable[..., TriangleCounterBackend]

_REGISTRY: Dict[str, BackendFactory] = {}


def register_backend(name: str) -> Callable[[BackendFactory], BackendFactory]:
    """Class/function decorator registering a counting backend under *name*.

    The decorated object is returned unchanged.  Registering a name twice is
    an error (it would silently shadow an existing execution strategy).
    """
    key = str(name).lower()
    if not key:
        raise ConfigurationError("backend name must be a non-empty string")

    def decorator(factory: BackendFactory) -> BackendFactory:
        if key in _REGISTRY:
            raise ConfigurationError(f"counting backend {key!r} is already registered")
        if isinstance(factory, type) and not issubclass(factory, TriangleCounterBackend):
            raise ConfigurationError(
                f"backend class {factory.__name__} must subclass TriangleCounterBackend"
            )
        _REGISTRY[key] = factory
        return factory

    return decorator


def unregister_backend(name: str) -> None:
    """Remove a registered backend (primarily for tests of the registry itself)."""
    _REGISTRY.pop(resolve_backend_name(name), None)


def resolve_backend_name(name: Union[str, enum.Enum]) -> str:
    """Normalise an enum member or string to the registry's lower-case key."""
    if isinstance(name, enum.Enum):
        name = name.value
    return str(name).lower()


def backend_registered(name: Union[str, enum.Enum]) -> bool:
    """Whether *name* resolves to a registered backend."""
    return resolve_backend_name(name) in _REGISTRY


def available_backends() -> List[str]:
    """Registered backend names, sorted for stable presentation."""
    return sorted(_REGISTRY)


def get_backend_factory(name: Union[str, enum.Enum]) -> BackendFactory:
    """Look up the factory registered under *name*."""
    key = resolve_backend_name(name)
    if key not in _REGISTRY:
        raise ConfigurationError(
            f"unknown counting backend {key!r}; registered: {', '.join(available_backends())}"
        )
    return _REGISTRY[key]


def create_backend(
    name: Union[str, enum.Enum],
    config,
    dealer_rng: RandomState = None,
    views: Optional[ViewRecorder] = None,
    authenticator=None,
) -> TriangleCounterBackend:
    """Instantiate the backend registered under *name* for *config*.

    *name* may be a :class:`~repro.core.config.CountingBackend` member or any
    registered string; *config* is passed through to the backend's factory
    (duck-typed, see :meth:`TriangleCounterBackend.from_config`).

    *authenticator* is forwarded only when the factory's signature accepts
    it, so third-party backends registered before the MAC layer existed keep
    working unauthenticated — but asking such a backend to authenticate is a
    configuration error, not a silent downgrade.
    """
    factory = get_backend_factory(name)
    builder = factory.from_config if isinstance(factory, type) else factory
    kwargs = {"dealer_rng": dealer_rng, "views": views}
    if authenticator is not None:
        import inspect

        parameters = inspect.signature(builder).parameters
        accepts = "authenticator" in parameters or any(
            parameter.kind is inspect.Parameter.VAR_KEYWORD
            for parameter in parameters.values()
        )
        if not accepts:
            raise ConfigurationError(
                f"counting backend {resolve_backend_name(name)!r} does not "
                "support authenticated openings (its factory takes no "
                "'authenticator' argument); run it with authenticate=False"
            )
        kwargs["authenticator"] = authenticator
    return builder(config, **kwargs)
