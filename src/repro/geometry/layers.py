"""Mask layers and the default NMOS technology.

Riot predates CMOS ubiquity; the Caltech flow of the paper (Bristle
Blocks, LAP, REST, the Mead-Conway text that defined CIF) is a
lambda-based NMOS flow.  We provide the standard Mead-Conway NMOS layer
set and design rules, parameterised on lambda, plus a small registry so
CIF layer names round-trip.

The technology object also carries the numbers Riot's connection
operations need: the routing pitch per layer (river router track
spacing) and minimum separations (REST compaction constraints).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Layer:
    """One mask layer.

    ``cif_name`` is the name used in CIF ``L`` commands; ``color`` is
    the display color index used by the graphics package (Riot's
    "color of the connector crosses indicates ... layer").
    """

    name: str
    cif_name: str
    color: int
    is_routing: bool = True

    def __str__(self) -> str:
        return self.name


class Technology:
    """A layer set plus lambda-based design rules.

    All distances are in centimicrons.  The three rules Riot's
    operations consume:

    * ``min_width(layer)`` — default wire width for routes whose
      connectors do not specify one.
    * ``min_separation(layer)`` — edge-to-edge spacing of parallel
      wires on one layer.
    * ``pitch(layer)`` — centre-to-centre track spacing used by the
      river router (= min_width + min_separation).
    """

    def __init__(
        self,
        name: str,
        lambda_cm: int,
        layers: list[Layer],
        min_width_lambda: dict[str, int],
        min_separation_lambda: dict[str, int],
    ) -> None:
        self.name = name
        self.lambda_cm = lambda_cm
        self._layers: dict[str, Layer] = {}
        self._by_cif: dict[str, Layer] = {}
        for layer in layers:
            if layer.name in self._layers:
                raise ValueError(f"duplicate layer name {layer.name!r}")
            if layer.cif_name in self._by_cif:
                raise ValueError(f"duplicate CIF layer name {layer.cif_name!r}")
            self._layers[layer.name] = layer
            self._by_cif[layer.cif_name] = layer
        self._min_width = {
            k: v * lambda_cm for k, v in min_width_lambda.items()
        }
        self._min_sep = {
            k: v * lambda_cm for k, v in min_separation_lambda.items()
        }
        missing = set(self._layers) - set(self._min_width)
        if missing:
            raise ValueError(f"layers missing width rules: {sorted(missing)}")
        # A technology never changes after construction, and every leaf
        # parse lookup hashes and compares one, so its value is kept.
        self._key = self._rule_key()

    # -- identity --------------------------------------------------------

    def _rule_key(self) -> tuple:
        """The value tuple that defines this technology.

        Everything rule-relevant in canonical (sorted) order, so two
        technologies built from the same rules compare and hash equal
        regardless of the order layers were listed in.
        """
        return (
            self.name,
            self.lambda_cm,
            tuple(
                sorted(
                    (layer.name, layer.cif_name, layer.color, layer.is_routing)
                    for layer in self._layers.values()
                )
            ),
            tuple(sorted(self._min_width.items())),
            tuple(sorted(self._min_sep.items())),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Technology):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return (
            f"Technology({self.name!r}, lambda={self.lambda_cm}, "
            f"{len(self._layers)} layers)"
        )

    # -- lookup ----------------------------------------------------------

    def layer(self, name: str) -> Layer:
        try:
            return self._layers[name]
        except KeyError:
            raise KeyError(
                f"unknown layer {name!r}; technology {self.name} has "
                f"{sorted(self._layers)}"
            ) from None

    def layer_by_cif(self, cif_name: str) -> Layer:
        try:
            return self._by_cif[cif_name]
        except KeyError:
            raise KeyError(
                f"unknown CIF layer {cif_name!r}; technology {self.name} has "
                f"{sorted(self._by_cif)}"
            ) from None

    def has_layer(self, name: str) -> bool:
        return name in self._layers

    @property
    def layers(self) -> list[Layer]:
        return list(self._layers.values())

    @property
    def routing_layers(self) -> list[Layer]:
        return [layer for layer in self._layers.values() if layer.is_routing]

    # -- rules --------------------------------------------------------------

    def min_width(self, layer: Layer | str) -> int:
        return self._min_width[layer.name if isinstance(layer, Layer) else layer]

    def min_separation(self, layer: Layer | str) -> int:
        return self._min_sep[layer.name if isinstance(layer, Layer) else layer]

    def pitch(self, layer: Layer | str) -> int:
        return self.min_width(layer) + self.min_separation(layer)

    def lam(self, n: int) -> int:
        """``n`` lambdas in centimicrons."""
        return n * self.lambda_cm


def nmos_technology(lambda_cm: int = 250) -> Technology:
    """The Mead-Conway NMOS technology used throughout the reproduction.

    Layer names and CIF names follow *Introduction to VLSI Systems*:
    ND diffusion, NP polysilicon, NC contact cut, NM metal, NI
    implant, NB buried contact, NG overglass.  Rules are the classic
    lambda rules (metal 3λ wide / 3λ apart, poly and diffusion 2λ/2λ
    and 2λ/3λ respectively).
    """
    layers = [
        Layer("diffusion", "ND", color=2),
        Layer("poly", "NP", color=1),
        Layer("contact", "NC", color=0, is_routing=False),
        Layer("metal", "NM", color=4),
        Layer("implant", "NI", color=3, is_routing=False),
        Layer("buried", "NB", color=5, is_routing=False),
        Layer("glass", "NG", color=6, is_routing=False),
    ]
    min_width = {
        "diffusion": 2,
        "poly": 2,
        "contact": 2,
        "metal": 3,
        "implant": 4,
        "buried": 2,
        "glass": 4,
    }
    min_separation = {
        "diffusion": 3,
        "poly": 2,
        "contact": 2,
        "metal": 3,
        "implant": 2,
        "buried": 2,
        "glass": 2,
    }
    return Technology("nmos", lambda_cm, layers, min_width, min_separation)


DEFAULT_TECHNOLOGY = nmos_technology()
