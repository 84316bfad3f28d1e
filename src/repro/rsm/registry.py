"""Named surrogate fitters: the response-surface stage registry.

Mirrors :mod:`repro.backends`: a process-wide registry maps a name to a
fitter with the uniform signature

    ``fitter(points_coded, responses, space, **options) -> ResponseSurface``

so a :class:`~repro.core.study.StudySpec` (or the CLI's ``explore
--surrogate``) can select the surrogate declaratively.  The shipped
names are the polynomial bases of :class:`~repro.rsm.basis.PolynomialBasis`
fitted by ordinary least squares -- ``quadratic`` is the paper's eq. (4)
/ eq. (9) model.

The registry is the open slot for richer surrogates (kriging, radial
basis functions), with one caveat: the study pipeline consumes the
:class:`~repro.rsm.model.ResponseSurface` interface -- ``predict_coded``
for optimisation, ``basis.expand`` + ``fit`` for the goodness-of-fit
diagnostics, ``to_string`` for reports -- so a non-polynomial fitter
must return an object honouring that same interface (e.g. a subclass
with a suitable feature basis), not an arbitrary model type.

All shipped fitters are deterministic (OLS has no random state); custom
fitters must be deterministic too, which the registry conformance tests
assert for every registered name.

Third parties extend the registry with :func:`register_surrogate`;
unknown names fail with a :class:`~repro.errors.ConfigError` listing
what is available.
"""

from __future__ import annotations

from typing import Callable, List

from repro.registry import Registry
from repro.rsm.basis import KINDS
from repro.rsm.model import ResponseSurface, fit_response_surface

#: The uniform surrogate-fitter signature.
SurrogateFitter = Callable[..., ResponseSurface]

_REGISTRY: Registry[SurrogateFitter] = Registry("surrogate")


def register_surrogate(
    name: str, fitter: SurrogateFitter, overwrite: bool = False
) -> None:
    """Register a surrogate fitter under ``name``.

    ``fitter(points_coded, responses, space, **options)`` must return a
    :class:`~repro.rsm.model.ResponseSurface` and be deterministic
    (same data, same model -- studies rely on this to reproduce
    bit-identical outcomes on resume).  Re-registering an existing name
    requires ``overwrite=True`` so typos cannot silently shadow a
    shipped fitter.
    """
    _REGISTRY.register(name, fitter, overwrite)


def surrogate_names() -> List[str]:
    """Registered surrogate names."""
    return _REGISTRY.names()


def get_surrogate(name: str) -> SurrogateFitter:
    """The fitter registered under ``name``."""
    return _REGISTRY.lookup(name)


def _polynomial(kind: str) -> SurrogateFitter:
    def fitter(points_coded, responses, space=None, **options) -> ResponseSurface:
        return fit_response_surface(
            points_coded, responses, kind=kind, space=space, **options
        )

    fitter.__name__ = f"fit_{kind}"
    fitter.__doc__ = f"OLS fit of the {kind!r} polynomial basis."
    return fitter


# Every polynomial basis kind, under its basis name ("pure_quadratic"
# registers as "pure-quadratic" -- registry names are kebab-case).
for _kind in KINDS:
    register_surrogate(_kind.replace("_", "-"), _polynomial(_kind))
