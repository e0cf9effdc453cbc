"""Red-Black Successive Over-Relaxation (§2.3).

The grid is divided into bands of consecutive rows, one per processor;
communication happens across band boundaries, and each of the two
half-iterations (red, black) ends in a barrier.  The computation is
real: every run relaxes an actual numpy grid, and the per-write
``changed_bytes`` counts come from comparing new values against the
store — which is how the paper's §2.4.2 effect appears: with the
default zero interior, early iterations change almost nothing in the
middle of the grid, so TreadMarks diffs stay tiny while hardware
coherence moves whole lines regardless.

``init="random"`` reproduces the paper's control experiment where the
grid is initialized so that every point changes every iteration,
equalizing data movement between the two systems.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.apps.base import AppContext, Application, Program, chunk_ranges
from repro.apps import ops
from repro.errors import ConfigurationError

FLOAT = np.float64
BYTES_PER_CELL = 8

#: Processor cycles per relaxed cell on a 1994 RISC CPU: 3 FP adds,
#: 1 FP multiply, 5 loads + 1 store through the primary cache, loop
#: overhead.  Shared-region traffic is charged separately by the
#: machine models via the Read/Write operations.
CYCLES_PER_CELL = 30


class SorApp(Application):
    """Red-Black SOR over an ``rows x cols`` interior grid."""

    name = "sor"

    def __init__(self, rows: int = 256, cols: int = 256,
                 iterations: int = 10, init: str = "zero",
                 edge_value: float = 1.0) -> None:
        if rows < 2 or cols < 2:
            raise ConfigurationError(
                f"SOR grid must be at least 2x2, got {rows}x{cols}")
        if init not in ("zero", "random"):
            raise ConfigurationError(f"unknown init mode '{init}'")
        self.rows = rows
        self.cols = cols
        self.iterations = iterations
        self.init = init
        self.edge_value = edge_value
        self.name = f"sor-{rows}x{cols}" + ("-alldirty"
                                            if init == "random" else "")

    # ------------------------------------------------------------------
    @property
    def total_rows(self) -> int:
        """Interior rows plus the two fixed boundary rows."""
        return self.rows + 2

    @property
    def row_bytes(self) -> int:
        """Bytes in one grid row — the false-sharing unit of §2.4.2."""
        return self.cols * BYTES_PER_CELL

    def regions(self, nprocs: int) -> Dict[str, int]:
        """A single shared grid, boundary rows included."""
        return {"grid": self.total_rows * self.row_bytes}

    def init_data(self, ctx: AppContext) -> None:
        """Zero interior with hot edges, or a random field."""
        grid = self._grid(ctx)
        if self.init == "zero":
            grid.fill(0.0)
            grid[0, :] = self.edge_value
            grid[-1, :] = self.edge_value
            grid[:, 0] = self.edge_value
            grid[:, -1] = self.edge_value
        else:
            rng = ctx.rng(stream=1)
            grid[:] = rng.random(grid.shape)

    def _grid(self, ctx: AppContext) -> np.ndarray:
        return ctx.store.view("grid", FLOAT)[
            : self.total_rows * self.cols].reshape(self.total_rows,
                                                   self.cols)

    # ------------------------------------------------------------------
    def programs(self, ctx: AppContext) -> List[Program]:
        """One worker per contiguous band of interior rows."""
        bands = chunk_ranges(self.rows, ctx.nprocs)
        return [self._worker(ctx, p, bands[p]) for p in range(ctx.nprocs)]

    def _worker(self, ctx: AppContext, proc: int,
                band: range) -> Program:
        grid = self._grid(ctx)
        # Interior row r lives at grid row r + 1.
        lo = band.start + 1
        hi = band.stop + 1
        band_rows = hi - lo
        if band_rows == 0:
            for _it in range(self.iterations):
                for _phase in range(2):
                    yield ops.Barrier()
            return

        row_bytes = self.row_bytes
        band_off = lo * row_bytes
        band_nbytes = band_rows * row_bytes
        cells_per_phase = band_rows * (self.cols - 2) // 2

        for it in range(self.iterations):
            for phase in range(2):
                # The whole half-iteration — halo fetches, band read,
                # relaxation compute, band write-back — is one
                # synchronization-free run, relaxed up front and then
                # issued op by op.  (The fixed boundary rows are never
                # written, so reading them is free of coherence
                # traffic after warm-up.)  Red-black coloring makes
                # the phase data-race free: the halo cells a band
                # reads are the color its neighbours are *not*
                # updating, so relaxing before the first read issues
                # reads the same values as relaxing after the last.
                chunk = []
                if lo - 1 >= 1 and proc > 0:
                    chunk.append(
                        ops.Read("grid", (lo - 1) * row_bytes, row_bytes))
                if hi <= self.rows and proc < ctx.nprocs - 1:
                    chunk.append(
                        ops.Read("grid", hi * row_bytes, row_bytes))
                chunk.append(ops.Read("grid", band_off, band_nbytes))

                new_band = self._relax(grid, lo, hi, phase)
                changed = ctx.store.count_changed_bytes(
                    "grid", band_off, new_band)
                ctx.store.write("grid", band_off, new_band)
                chunk.append(ops.Compute(cells_per_phase * CYCLES_PER_CELL))
                chunk.append(ops.Write("grid", band_off, band_nbytes,
                                       changed_bytes=changed))
                yield from chunk
                yield ops.Barrier()

    def _relax(self, grid: np.ndarray, lo: int, hi: int,
               phase: int) -> np.ndarray:
        """One red/black half-iteration over rows ``[lo, hi)``.

        Vectorized over whole parity groups rather than row-by-row;
        every output cell is still ``0.25 * (up + down + left +
        right)`` evaluated elementwise in that exact order, so the
        results are bit-identical to the per-row formulation (the
        checksum goldens pin this).
        """
        band = grid[lo:hi].copy()
        cols = self.cols
        for off in range(2):
            r0 = lo + off
            if r0 >= hi:
                continue
            start = 1 + ((r0 + phase) % 2)
            csel = slice(start, cols - 1, 2)
            band[off:hi - lo:2, csel] = 0.25 * (
                grid[r0 - 1:hi - 1:2, csel] +
                grid[r0 + 1:hi + 1:2, csel] +
                grid[r0:hi:2, start - 1:cols - 2:2] +
                grid[r0:hi:2, start + 1:cols:2])
        return band

    # ------------------------------------------------------------------
    def verify(self, ctx: AppContext) -> Dict[str, float]:
        """Grid checksum plus monotonicity checks for the zero init."""
        grid = self._grid(ctx)
        out = {
            "checksum": float(grid.sum()),
            "interior_max": float(grid[1:-1, 1:-1].max()),
        }
        if self.init == "zero":
            # Relaxation from a hot boundary can never exceed it.
            assert out["interior_max"] <= self.edge_value + 1e-9, out
        return out
