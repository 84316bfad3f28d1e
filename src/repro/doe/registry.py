"""Named design generators: the DOE stage registry.

Mirrors :mod:`repro.backends`: a process-wide registry maps a name to a
generator with the uniform signature

    ``generator(space, n_runs, seed, **options) -> Design``

so a :class:`~repro.core.study.StudySpec` (or the CLI's ``explore
--design``) can select the DOE stage declaratively instead of importing
a concrete function.  The shipped names wrap the generators of this
package:

========== ==================================================
name       generator
========== ==================================================
d-optimal  :func:`repro.doe.doptimal.d_optimal` (the paper's)
lhs        :func:`repro.doe.lhs.latin_hypercube`
ccd        :func:`repro.doe.ccd.central_composite`
bbd        :func:`repro.doe.bbd.box_behnken`
factorial  :func:`repro.doe.factorial.full_factorial`
========== ==================================================

Structural designs (``ccd``, ``bbd``, ``factorial``) have a run count
fixed by their geometry; they accept ``n_runs`` for signature uniformity
and ignore it.  All shipped generators are deterministic in ``seed``
(structural ones ignore it too), which the registry conformance tests
assert for every registered name.

Third parties extend the registry with :func:`register_design`; unknown
names fail with a :class:`~repro.errors.ConfigError` listing what is
available.
"""

from __future__ import annotations

from typing import Callable, List

from repro.doe.bbd import box_behnken
from repro.doe.ccd import central_composite
from repro.doe.design import Design
from repro.doe.doptimal import d_optimal
from repro.doe.factorial import full_factorial
from repro.doe.lhs import latin_hypercube
from repro.registry import Registry
from repro.rsm.coding import ParameterSpace

#: The uniform design-generator signature.
DesignGenerator = Callable[..., Design]

_REGISTRY: Registry[DesignGenerator] = Registry("design")


def register_design(
    name: str, generator: DesignGenerator, overwrite: bool = False
) -> None:
    """Register a design generator under ``name``.

    ``generator(space, n_runs, seed, **options)`` must return a
    :class:`~repro.doe.design.Design` and be deterministic in ``seed``
    (same arguments, same design matrix -- studies rely on this to
    resume without re-deriving different work).  Re-registering an
    existing name requires ``overwrite=True`` so typos cannot silently
    shadow a shipped generator.
    """
    _REGISTRY.register(name, generator, overwrite)


def design_names() -> List[str]:
    """Registered design-generator names."""
    return _REGISTRY.names()


def get_design(name: str) -> DesignGenerator:
    """The generator registered under ``name``."""
    return _REGISTRY.lookup(name)


def build_design(
    name: str, space: ParameterSpace, n_runs: int, seed, **options
) -> Design:
    """Resolve ``name`` and build the design in one call."""
    return get_design(name)(space, n_runs, seed, **options)


# -- shipped generators --------------------------------------------------------


def _d_optimal(
    space: ParameterSpace, n_runs: int, seed, **options
) -> Design:
    """The paper's choice: D-optimal exchange over the 3-level grid."""
    return d_optimal(
        space.k,
        n_runs,
        kind=options.pop("kind", "quadratic"),
        method=options.pop("method", "fedorov"),
        seed=seed,
        space=space,
        **options,
    )


def _lhs(space: ParameterSpace, n_runs: int, seed, **options) -> Design:
    return latin_hypercube(
        space.k,
        n_runs,
        seed=seed,
        criterion=options.pop("criterion", "maximin"),
        space=space,
        **options,
    )


def _ccd(space: ParameterSpace, n_runs: int, seed, **options) -> Design:
    # Structural: the run count follows from k and n_center.
    return central_composite(
        space.k,
        alpha=options.pop("alpha", "face"),
        n_center=int(options.pop("n_center", 1)),
        space=space,
        **options,
    )


def _bbd(space: ParameterSpace, n_runs: int, seed, **options) -> Design:
    return box_behnken(
        space.k, n_center=int(options.pop("n_center", 1)), space=space, **options
    )


def _factorial(space: ParameterSpace, n_runs: int, seed, **options) -> Design:
    return full_factorial(
        space.k, n_levels=int(options.pop("n_levels", 3)), space=space, **options
    )


register_design("d-optimal", _d_optimal)
register_design("lhs", _lhs)
register_design("ccd", _ccd)
register_design("bbd", _bbd)
register_design("factorial", _factorial)
