"""Conversions out of the composition world.

"Riot writes composition format files which are converted to CIF for
mask generation or to Sticks for simulation."

* :func:`composition_to_cif` — the full hierarchy as CIF text: CIF
  leaves pass through unchanged, Sticks leaves expand to mask
  geometry, composition cells become symbols with calls (arrays
  unrolled, since CIF has no array construct), and composition-cell
  connectors are carried as ``94`` extensions.
* :func:`composition_to_sticks` — a flattened symbolic cell for
  simulation.  Only Sticks-backed leaves carry devices; CIF leaves
  contribute nothing but a warning (their transistors are opaque
  geometry), matching the original flow where simulation input came
  from the symbolic side.
"""

from __future__ import annotations

from dataclasses import replace

from repro.cif.semantics import CifCell, CifConnector
from repro.cif.writer import write_cif
from repro.composition.cell import CompositionCell, LeafCell
from repro.core.errors import RiotError
from repro.geometry.layers import Technology
from repro.geometry.transform import Transform
from repro.sticks.expand import expand_to_cif
from repro.sticks.model import (
    HORIZONTAL,
    VERTICAL,
    Device,
    Pin,
    SticksCell,
)


def composition_to_cif(
    cell: CompositionCell, technology: Technology, expander=None
) -> str:
    """The cell's full hierarchy as a CIF text stream.

    ``expander`` substitutes for :func:`expand_to_cif` when given —
    the verification pipeline passes one that serves Sticks leaf
    expansions from its content-addressed cache instead of
    recomputing them.
    """
    memo: dict[int, CifCell] = {}
    counter = [0]
    top = _to_cif_cell(cell, technology, memo, counter, expander or expand_to_cif)
    return write_cif([top])


def _to_cif_cell(
    cell,
    technology: Technology,
    memo: dict[int, CifCell],
    counter: list[int],
    expander,
) -> CifCell:
    if id(cell) in memo:
        return memo[id(cell)]
    counter[0] += 1
    number = counter[0]

    if isinstance(cell, LeafCell):
        if cell.cif_cell is not None:
            result = cell.cif_cell
        else:
            result = expander(cell.sticks_cell, technology, number)
    elif isinstance(cell, CompositionCell):
        result = CifCell(number, cell.name)
        for conn in cell.connectors:
            result.connectors.append(
                CifConnector(conn.name, conn.position, conn.layer, conn.width)
            )
        for instance in cell.instances:
            child = _to_cif_cell(instance.cell, technology, memo, counter, expander)
            for _, _, transform in instance.element_transforms():
                result.calls.append((child, transform))
    else:  # pragma: no cover - the hierarchy has exactly two cell kinds
        raise RiotError(f"cannot convert {cell!r} to CIF")
    memo[id(cell)] = result
    return result


def composition_to_sticks(
    cell: CompositionCell, technology: Technology
) -> tuple[SticksCell, list[str]]:
    """Flatten to one symbolic cell for simulation.

    Returns the cell and a list of warnings naming any CIF-backed
    leaves whose contents could not be represented symbolically.
    """
    flat = SticksCell(cell.name)
    warnings: list[str] = []
    _flatten_sticks(cell, Transform.identity(), flat, warnings, set())

    for conn in cell.connectors:
        flat.pins.append(
            Pin(conn.name, conn.layer.name, conn.position, conn.width)
        )
    flat.boundary = cell.bounding_box()
    return flat, warnings


def _flatten_sticks(
    cell: CompositionCell,
    transform: Transform,
    out: SticksCell,
    warnings: list[str],
    warned: set[str],
) -> None:
    for instance in cell.instances:
        for _, _, element in instance.element_transforms():
            total = transform.compose(element)
            child = instance.cell
            if isinstance(child, CompositionCell):
                _flatten_sticks(child, total, out, warnings, warned)
            elif child.sticks_cell is not None:
                _append_transformed(out, child.sticks_cell, total)
            else:
                if child.name not in warned:
                    warned.add(child.name)
                    warnings.append(
                        f"leaf cell {child.name!r} is CIF geometry; its "
                        "devices are not visible to simulation"
                    )


def _append_transformed(
    out: SticksCell, source: SticksCell, transform: Transform
) -> None:
    """Append ``source``'s components transformed into ``out``.

    Pins do not propagate (internal connectivity is positional); the
    caller decides the flat cell's pins from the composition cell's
    connectors.
    """
    for wire in source.wires:
        out.wires.append(
            replace(wire, points=tuple(transform.apply(p) for p in wire.points))
        )
    for contact in source.contacts:
        out.contacts.append(replace(contact, point=transform.apply(contact.point)))
    for device in source.devices:
        orientation = device.orientation
        if transform.orientation.swaps_axes:
            orientation = HORIZONTAL if orientation == VERTICAL else VERTICAL
        out.devices.append(
            Device(
                device.kind,
                transform.apply(device.center),
                orientation,
                device.length,
                device.width,
            )
        )
