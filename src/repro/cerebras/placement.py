"""2-D placement of kernel regions onto the wafer PE grid.

Kernels occupy rectangular PE regions. The placer uses first-fit
decreasing-height shelf packing — a reasonable stand-in for the Cerebras
placement engine — and reports:

* whether the requested grants physically fit (near-full wafers lose a
  few percent to fragmentation, which is why measured allocation tops
  out below the usable fraction),
* centroid-to-centroid Manhattan distances along the dataflow chain
  ("kernels with data dependencies are placed physically close",
  Sec. III-A), used by the runtime's communication model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.common.errors import ConfigurationError


@dataclass(frozen=True)
class PlacedRect:
    """One kernel's rectangle on the PE grid."""

    name: str
    x: int
    y: int
    width: int
    height: int

    @property
    def pes(self) -> int:
        return self.width * self.height

    @property
    def centroid(self) -> tuple[float, float]:
        return (self.x + self.width / 2.0, self.y + self.height / 2.0)


@dataclass
class Placement:
    """Result of one placement attempt."""

    grid_width: int
    grid_height: int
    rects: list[PlacedRect] = field(default_factory=list)
    fits: bool = True
    requested_pes: float = 0.0

    @property
    def placed_pes(self) -> int:
        return sum(rect.pes for rect in self.rects)

    @property
    def grid_pes(self) -> int:
        return self.grid_width * self.grid_height

    def rect(self, name: str) -> PlacedRect:
        for rect in self.rects:
            if rect.name == name:
                return rect
        raise KeyError(name)

    def distance(self, a: str, b: str) -> float:
        """Manhattan centroid distance between two placed kernels, in PEs."""
        (ax, ay), (bx, by) = self.rect(a).centroid, self.rect(b).centroid
        return abs(ax - bx) + abs(ay - by)

    def chain_wire_length(self, order: list[str]) -> float:
        """Total hop distance along a dataflow chain of kernel names."""
        return sum(self.distance(a, b) for a, b in zip(order, order[1:]))


class WaferPlacer:
    """Places kernel rectangles on the PE grid.

    Two strategies:

    * ``"strips"`` (default) — column slicing: every kernel becomes a
      full-height vertical strip, widths rounded up. This mirrors the
      slice-based placement real wafer compilers use; waste is only the
      per-kernel rounding, so near-full wafers still reach the paper's
      92-93% allocation ceiling.
    * ``"shelves"`` — first-fit decreasing-height shelf packing, a
      deliberately cruder policy kept for the placement ablation bench.
    """

    def __init__(self, grid_width: int, grid_height: int,
                 strategy: str = "strips") -> None:
        if grid_width <= 0 or grid_height <= 0:
            raise ConfigurationError("grid dimensions must be positive")
        if strategy not in ("strips", "shelves"):
            raise ConfigurationError(f"unknown placement strategy {strategy!r}")
        self.grid_width = grid_width
        self.grid_height = grid_height
        self.strategy = strategy

    @staticmethod
    def rect_shape(pes: float, max_width: int) -> tuple[int, int]:
        """Near-square (width, height) for a PE count, clamped to the grid."""
        pes = max(1.0, pes)
        width = min(max_width, max(1, math.ceil(math.sqrt(pes))))
        height = max(1, math.ceil(pes / width))
        return width, height

    def place(self, demands: list[tuple[str, float]]) -> Placement:
        """Pack the (name, pes) demands; ``fits=False`` if the grid overflows."""
        if self.strategy == "strips":
            return self._place_strips(demands)
        return self._place_shelves(demands)

    def _place_strips(self, demands: list[tuple[str, float]]) -> Placement:
        """Column-slicing placement: one full-height strip per kernel."""
        placement = Placement(grid_width=self.grid_width,
                              grid_height=self.grid_height,
                              requested_pes=sum(p for _n, p in demands))
        cursor_x = 0
        for name, pes in demands:
            if pes < 0:
                raise ConfigurationError(
                    f"kernel {name!r}: negative PE demand")
            width = max(1, math.ceil(pes / self.grid_height))
            if cursor_x + width > self.grid_width:
                placement.fits = False
                width = max(1, self.grid_width - cursor_x)
                if cursor_x >= self.grid_width:
                    cursor_x = self.grid_width - 1
                    width = 1
            placement.rects.append(PlacedRect(
                name=name, x=cursor_x, y=0,
                width=width, height=self.grid_height))
            cursor_x += width
        return placement

    def _place_shelves(self, demands: list[tuple[str, float]]) -> Placement:
        """First-fit decreasing-height shelf packing.

        Shelves are filled in decreasing height order; each shelf's height
        is set by its first rectangle. Overflowing rectangles mark the
        placement as infeasible but are still recorded (clipped to the
        grid) so callers can inspect what nearly fit.
        """
        placement = Placement(grid_width=self.grid_width,
                              grid_height=self.grid_height,
                              requested_pes=sum(p for _n, p in demands))
        shapes = []
        for name, pes in demands:
            if pes < 0:
                raise ConfigurationError(
                    f"kernel {name!r}: negative PE demand")
            width, height = self.rect_shape(pes, self.grid_width)
            shapes.append((name, width, height))
        shapes.sort(key=lambda item: item[2], reverse=True)

        shelf_y = 0
        shelf_height = 0
        cursor_x = 0
        for name, width, height in shapes:
            if cursor_x + width > self.grid_width:
                # Start a new shelf.
                shelf_y += shelf_height
                shelf_height = 0
                cursor_x = 0
            if shelf_height == 0:
                shelf_height = height
            if shelf_y >= self.grid_height:
                # Already past the grid: clamp so distance queries still
                # work on the (infeasible) layout.
                placement.fits = False
                shelf_y = self.grid_height - 1
                shelf_height = 1
            if shelf_y + height > self.grid_height:
                placement.fits = False
                height = max(1, self.grid_height - shelf_y)
            placement.rects.append(PlacedRect(
                name=name, x=cursor_x, y=shelf_y,
                width=width, height=height))
            cursor_x += width
        return placement

    def packing_efficiency(self, demands: list[tuple[str, float]]) -> float:
        """Largest uniform shrink factor that makes the demands fit.

        Returns 1.0 when the demands fit as-is; otherwise binary-searches
        the scale factor in (0, 1]. This is the fragmentation penalty the
        compiler applies when the wafer is nearly full.

        For strips a scaled trial needs no placement: strip widths are
        at least one column and the cursor only advances, so the strips
        fit exactly when their rounded widths sum to at most
        ``grid_width``.
        """
        if self.place(demands).fits:
            return 1.0
        if self.strategy == "strips":
            height, width = self.grid_height, self.grid_width

            def fits(mid: float) -> bool:
                return sum(max(1, math.ceil(pes * mid / height))
                           for _name, pes in demands) <= width
        else:
            def fits(mid: float) -> bool:
                return self.place(
                    [(name, pes * mid) for name, pes in demands]).fits
        lo, hi = 0.0, 1.0
        for _ in range(24):
            mid = (lo + hi) / 2.0
            if fits(mid):
                lo = mid
            else:
                hi = mid
        return lo
