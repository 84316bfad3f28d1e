"""Circuit container: components, nodes and index assignment.

Nodes are referred to by name; ``"0"`` (or :data:`Circuit.GROUND`) is the
ground reference.  :meth:`Circuit.build` freezes the netlist into an
:class:`repro.analog.mna.MnaSystem` that assigns every non-ground node a row
in the MNA matrix and every component its extra (branch-current / internal
state) rows.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, TYPE_CHECKING

from repro.errors import NetlistError

if TYPE_CHECKING:  # pragma: no cover
    from repro.analog.components.base import Component
    from repro.analog.mna import MnaSystem


class Circuit:
    """A mutable netlist.

    Examples
    --------
    >>> from repro.analog.components.passives import Resistor
    >>> from repro.analog.components.sources import VoltageSource
    >>> ckt = Circuit("divider")
    >>> _ = ckt.add(VoltageSource("V1", "in", "0", dc=10.0))
    >>> _ = ckt.add(Resistor("R1", "in", "out", 1e3))
    >>> _ = ckt.add(Resistor("R2", "out", "0", 1e3))
    >>> sorted(ckt.node_names())
    ['in', 'out']
    """

    GROUND = "0"

    def __init__(self, title: str = "circuit"):
        self.title = title
        self.components: List["Component"] = []
        self._names: set = set()

    def add(self, component: "Component") -> "Component":
        """Add a component; names must be unique within the circuit."""
        if component.name in self._names:
            raise NetlistError(
                f"duplicate component name {component.name!r} in circuit {self.title!r}"
            )
        self._names.add(component.name)
        self.components.append(component)
        return component

    def component(self, name: str) -> "Component":
        """Look a component up by name."""
        for comp in self.components:
            if comp.name == name:
                return comp
        raise NetlistError(f"no component named {name!r} in circuit {self.title!r}")

    def node_names(self) -> List[str]:
        """All non-ground node names, in first-use order."""
        seen: Dict[str, None] = {}
        for comp in self.components:
            for node in comp.node_names():
                if node != self.GROUND and node not in seen:
                    seen[node] = None
        return list(seen)

    def validate(self) -> None:
        """Sanity-check the netlist: non-empty, and a ground reference exists."""
        if not self.components:
            raise NetlistError(f"circuit {self.title!r} has no components")
        grounded = any(
            self.GROUND in comp.node_names() for comp in self.components
        )
        if not grounded:
            raise NetlistError(
                f"circuit {self.title!r} has no connection to ground node "
                f"{self.GROUND!r}; the MNA matrix would be singular"
            )

    def build(self) -> "MnaSystem":
        """Freeze the netlist into an :class:`~repro.analog.mna.MnaSystem`."""
        from repro.analog.mna import MnaSystem

        self.validate()
        return MnaSystem(self)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Circuit({self.title!r}, {len(self.components)} components)"
