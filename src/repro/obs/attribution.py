"""Energy provenance: book every picojoule to where it came from.

The :class:`AttributionSink` is an opt-in companion to
:class:`~repro.energy.tracker.EnergyTracker`.  When attached, every energy
increment the tracker records is *also* booked under a four-part key::

    (pc, pipeline unit, instruction class, secure-mode)

``pc`` is the byte address of the instruction the energy belongs to
(:data:`OVERHEAD_PC` for program-independent costs such as the clock tree
and injected noise); the unit names follow the tracker's component
breakdown (``clock``, ``ibus``, ``regfile``, ``funits``, ``dbus``,
``memport``, ``latches``, ``secure``, ``noise``); the instruction class is
a coarse bucket (``xor``, ``shift``, ``alu``, ``load``, ``store``,
``branch``, ``jump``, ``nop``, ``halt``, ``overhead``) derived from the
opcode table.

Conservation invariant: the sink receives exactly the increments the
tracker adds to its running totals, so ``sum(cell.pj) ==
tracker.total_energy_pj`` up to float summation order (verified to 1e-9
relative by the test suite).  Because cells are plain sums, merging is
associative and commutative — per-worker snapshots combined in submission
order give bit-identical aggregates for any ``jobs=N``.

Rollups climb the provenance ladder: per-PC cells annotate themselves with
the instruction's disassembly, its *source line* (threaded from the
high-level compiler through ``.loc`` directives), and its *slice
membership* (whether the masking pass put it in the secured program
slice), so per-PC totals fold into per-source-line and per-secure-region
totals.
"""

from __future__ import annotations

from typing import Optional

from ..isa.instructions import AluOp, OPCODES

SCHEMA = "repro.obs.attribution/v1"

#: Pseudo-PC for program-independent energy (clock tree, injected noise).
OVERHEAD_PC = -1

_SHIFT_OPS = (AluOp.SLL, AluOp.SRL, AluOp.SRA)


def _classify(spec) -> str:
    if spec.halts:
        return "halt"
    if spec.is_load:
        return "load"
    if spec.is_store:
        return "store"
    if spec.is_branch:
        return "branch"
    if spec.is_jump:
        return "jump"
    if spec.alu is AluOp.XOR:
        return "xor"
    if spec.alu in _SHIFT_OPS:
        return "shift"
    if spec.alu is AluOp.NONE:
        return "nop"
    return "alu"


#: Opcode -> instruction class, precomputed so the per-increment path is a
#: single dict lookup.
CLASS_BY_OP: dict[str, str] = {name: _classify(spec)
                               for name, spec in OPCODES.items()}

#: All instruction classes, stable order for rendering.
CLASSES = ("xor", "shift", "alu", "load", "store", "branch", "jump",
           "nop", "halt", "overhead")


class AttributionSink:
    """Accumulates (pc, unit, class, secure) -> [pJ, event count] cells.

    The booking methods are called from the tracker's per-cycle hook path,
    so they do as little as possible: one tuple construction and one dict
    access per increment.  Everything else (annotation, rollups,
    rendering) happens after the run.
    """

    __slots__ = ("cells", "pc_info")

    def __init__(self):
        #: (pc, unit, iclass, secure) -> [pj, events]
        self.cells: dict[tuple[int, str, str, bool], list] = {}
        #: pc -> {"asm": str, "line": int|None, "sliced": bool} once
        #: :meth:`annotate` has seen a program covering the pc.
        self.pc_info: dict[int, dict] = {}

    # -- booking (hot path) -------------------------------------------

    def book(self, pc: int, unit: str, iclass: str, secure: bool,
             pj: float) -> None:
        key = (pc, unit, iclass, secure)
        cell = self.cells.get(key)
        if cell is None:
            self.cells[key] = [pj, 1]
        else:
            cell[0] += pj
            cell[1] += 1

    def book_ins(self, pc: int, unit: str, ins, pj: float) -> None:
        """Book an increment belonging to one instruction."""
        key = (pc, unit, CLASS_BY_OP[ins.op], ins.secure)
        cell = self.cells.get(key)
        if cell is None:
            self.cells[key] = [pj, 1]
        else:
            cell[0] += pj
            cell[1] += 1

    def book_overhead(self, unit: str, pj: float) -> None:
        """Book a program-independent increment (clock tree, noise)."""
        self.book(OVERHEAD_PC, unit, "overhead", False, pj)

    # -- post-run -----------------------------------------------------

    def annotate(self, program) -> None:
        """Attach disassembly + source-line debug info for booked PCs."""
        text = program.text
        base = program.text_base
        for pc in {key[0] for key in self.cells}:
            if pc < 0 or pc in self.pc_info:
                continue
            index = (pc - base) >> 2
            if 0 <= index < len(text):
                ins = text[index]
                self.pc_info[pc] = {
                    "asm": str(ins),
                    "line": ins.source_line,
                    "sliced": bool(ins.sliced),
                }

    def total_pj(self) -> float:
        return sum(cell[0] for cell in self.cells.values())

    def __bool__(self) -> bool:
        return bool(self.cells)

    # -- snapshot / merge ---------------------------------------------

    def snapshot(self) -> dict:
        """JSON-able, deterministic dump of the accumulated attribution."""
        cells = [[pc, unit, iclass, int(secure), cell[0], cell[1]]
                 for (pc, unit, iclass, secure), cell
                 in sorted(self.cells.items())]
        return {
            "schema": SCHEMA,
            "cells": cells,
            "pc_info": {str(pc): dict(info)
                        for pc, info in sorted(self.pc_info.items())},
            "total_pj": self.total_pj(),
        }

    def merge(self, other: "AttributionSink") -> None:
        """Fold another sink's cells into this one (associative sums)."""
        cells = self.cells
        for key, incoming in other.cells.items():
            cell = cells.get(key)
            if cell is None:
                cells[key] = list(incoming)
            else:
                cell[0] += incoming[0]
                cell[1] += incoming[1]
        for pc, info in other.pc_info.items():
            self.pc_info.setdefault(pc, dict(info))

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold a serialized snapshot (e.g. from a pool worker) in."""
        if not snapshot:
            return
        schema = snapshot.get("schema")
        if schema != SCHEMA:
            raise ValueError(f"not an attribution snapshot "
                             f"(schema={schema!r})")
        cells = self.cells
        for pc, unit, iclass, secure, pj, events in snapshot.get("cells",
                                                                 ()):
            key = (int(pc), unit, iclass, bool(secure))
            cell = cells.get(key)
            if cell is None:
                cells[key] = [pj, int(events)]
            else:
                cell[0] += pj
                cell[1] += int(events)
        for pc, info in snapshot.get("pc_info", {}).items():
            self.pc_info.setdefault(int(pc), dict(info))

    def reset(self) -> None:
        self.cells.clear()
        self.pc_info.clear()


# ---------------------------------------------------------------------
# Rollups over snapshots (work on live sinks via .snapshot() or on JSON
# loaded back from disk — the CLI path).
# ---------------------------------------------------------------------

def _iter_cells(snapshot: dict):
    for pc, unit, iclass, secure, pj, events in snapshot.get("cells", ()):
        yield int(pc), unit, iclass, bool(secure), float(pj), int(events)


def rollup_units(snapshot: dict) -> dict[str, dict]:
    """Per-pipeline-unit {pj, events}; matches tracker component totals."""
    out: dict[str, dict] = {}
    for _, unit, _, _, pj, events in _iter_cells(snapshot):
        slot = out.setdefault(unit, {"pj": 0.0, "events": 0})
        slot["pj"] += pj
        slot["events"] += events
    return out


def rollup_classes(snapshot: dict) -> dict[str, dict]:
    """Per-instruction-class {pj, events}."""
    out: dict[str, dict] = {}
    for _, _, iclass, _, pj, events in _iter_cells(snapshot):
        slot = out.setdefault(iclass, {"pj": 0.0, "events": 0})
        slot["pj"] += pj
        slot["events"] += events
    return out


def rollup_pcs(snapshot: dict) -> dict[int, dict]:
    """Per-PC {pj, events, asm, line, sliced}, annotated when known."""
    info = snapshot.get("pc_info", {})
    out: dict[int, dict] = {}
    for pc, _, _, _, pj, events in _iter_cells(snapshot):
        slot = out.get(pc)
        if slot is None:
            meta = info.get(str(pc), {})
            slot = out[pc] = {"pj": 0.0, "events": 0,
                              "asm": meta.get("asm"),
                              "line": meta.get("line"),
                              "sliced": bool(meta.get("sliced", False))}
        slot["pj"] += pj
        slot["events"] += events
    return out


def rollup_lines(snapshot: dict) -> dict[Optional[int], dict]:
    """Per-source-line {pj, events, sliced}; ``None`` collects unmapped PCs.

    The source line rides on the instruction via the codegen/assembler
    ``.loc`` chain; hand-written assembly without ``.loc`` directives (and
    the overhead pseudo-PC) lands in the ``None`` bucket.
    """
    out: dict[Optional[int], dict] = {}
    for pc, record in rollup_pcs(snapshot).items():
        line = record["line"] if pc >= 0 else None
        slot = out.setdefault(line, {"pj": 0.0, "events": 0,
                                     "sliced": False})
        slot["pj"] += record["pj"]
        slot["events"] += record["events"]
        slot["sliced"] = slot["sliced"] or record["sliced"]
    return out


def rollup_regions(snapshot: dict) -> dict[str, dict]:
    """Secured-slice vs rest vs overhead {pj, events}.

    "secured" means the instruction belongs to the program slice the
    masking pass protected (``.loc``'s slice flag), independent of whether
    the individual instruction carries the secure bit — exactly the
    source-region notion the paper's Figure 4 listing uses.
    """
    out: dict[str, dict] = {}
    for pc, record in rollup_pcs(snapshot).items():
        if pc < 0:
            name = "overhead"
        elif record["sliced"]:
            name = "secured"
        else:
            name = "unsecured"
        slot = out.setdefault(name, {"pj": 0.0, "events": 0})
        slot["pj"] += record["pj"]
        slot["events"] += record["events"]
    return out


def top_hotspots(snapshot: dict, n: int = 20) -> list[dict]:
    """Top-``n`` PCs by energy, with share of the run total."""
    total = snapshot.get("total_pj") or 0.0
    rows = []
    for pc, record in rollup_pcs(snapshot).items():
        if pc < 0:
            continue
        rows.append({"pc": pc, "pj": record["pj"],
                     "events": record["events"],
                     "share": record["pj"] / total if total else 0.0,
                     "asm": record["asm"], "line": record["line"],
                     "sliced": record["sliced"]})
    rows.sort(key=lambda row: (-row["pj"], row["pc"]))
    return rows[:n]


def summarize_attribution(snapshot: dict, top: int = 25) -> dict:
    """Compact rollup of a snapshot for embedding in a run manifest.

    Full per-PC cell dumps can reach hundreds of kilobytes; manifests get
    the rollups (per unit / class / region), the top hotspots, and the
    cell count, while the complete snapshot goes to its own JSON file
    (``--attribution PATH``).
    """
    return {
        "schema": snapshot.get("schema", SCHEMA),
        "total_pj": snapshot.get("total_pj", 0.0),
        "cells": len(snapshot.get("cells", [])),
        "by_unit": rollup_units(snapshot),
        "by_class": rollup_classes(snapshot),
        "by_region": rollup_regions(snapshot),
        "top_hotspots": top_hotspots(snapshot, n=top),
    }


def render_attribution(snapshot: dict, top: int = 20) -> str:
    """ASCII rendering of an attribution snapshot (``repro obs attribution``).

    Accepts either a full :meth:`AttributionSink.snapshot` or the compact
    :func:`summarize_attribution` rollup a manifest embeds (detected by
    ``cells`` being a count rather than a list); the summary form renders
    the same sections minus the per-source-line table.
    """
    if not isinstance(snapshot.get("cells"), list):
        return _render_summary(snapshot, top=top)
    lines: list[str] = []
    total = snapshot.get("total_pj") or 0.0
    lines.append(f"attributed energy: {total:,.1f} pJ "
                 f"({len(snapshot.get('cells', []))} cells)")

    def section(title: str, table: dict, order=None) -> None:
        lines.append(f"  by {title}:")
        keys = order if order is not None else sorted(
            table, key=lambda k: -table[k]["pj"])
        for key in keys:
            slot = table.get(key)
            if slot is None:
                continue
            share = slot["pj"] / total if total else 0.0
            lines.append(f"    {str(key):<12} {slot['pj']:>16,.1f} pJ  "
                         f"{share:>6.1%}  {slot['events']:>12,} events")

    section("unit", rollup_units(snapshot))
    section("class", rollup_classes(snapshot),
            order=[c for c in CLASSES if c in rollup_classes(snapshot)])
    section("region", rollup_regions(snapshot),
            order=("secured", "unsecured", "overhead"))
    hotspots = top_hotspots(snapshot, n=top)
    if hotspots:
        lines.append(f"  top {len(hotspots)} hotspots:")
        for row in hotspots:
            where = f"0x{row['pc']:08x}"
            line = f" line {row['line']}" if row["line"] else ""
            mark = " [sliced]" if row["sliced"] else ""
            asm = f"  {row['asm']}" if row["asm"] else ""
            lines.append(f"    {where} {row['pj']:>14,.1f} pJ "
                         f"{row['share']:>6.1%}{asm}{line}{mark}")
    by_line = {line: slot for line, slot in rollup_lines(snapshot).items()
               if line is not None}
    if by_line:
        lines.append("  by source line:")
        for line in sorted(by_line, key=lambda ln: -by_line[ln]["pj"])[:top]:
            slot = by_line[line]
            share = slot["pj"] / total if total else 0.0
            mark = " [sliced]" if slot["sliced"] else ""
            lines.append(f"    line {line:<5} {slot['pj']:>16,.1f} pJ  "
                         f"{share:>6.1%}{mark}")
    return "\n".join(lines)


def _render_summary(summary: dict, top: int = 20) -> str:
    """ASCII rendering of a :func:`summarize_attribution` rollup."""
    lines: list[str] = []
    total = summary.get("total_pj") or 0.0
    lines.append(f"attributed energy: {total:,.1f} pJ "
                 f"({summary.get('cells', 0)} cells, summarized)")

    def section(title: str, table: dict, order=None) -> None:
        if not table:
            return
        lines.append(f"  by {title}:")
        keys = order if order is not None else sorted(
            table, key=lambda k: -table[k]["pj"])
        for key in keys:
            slot = table.get(key)
            if slot is None:
                continue
            share = slot["pj"] / total if total else 0.0
            lines.append(f"    {str(key):<12} {slot['pj']:>16,.1f} pJ  "
                         f"{share:>6.1%}  {slot['events']:>12,} events")

    section("unit", summary.get("by_unit", {}))
    section("class", summary.get("by_class", {}),
            order=[c for c in CLASSES if c in summary.get("by_class", {})])
    section("region", summary.get("by_region", {}),
            order=[name for name in ("secured", "unsecured", "overhead")
                   if name in summary.get("by_region", {})])
    hotspots = summary.get("top_hotspots", [])[:top]
    if hotspots:
        lines.append(f"  top {len(hotspots)} hotspots:")
        for row in hotspots:
            where = f"0x{row['pc']:08x}"
            line = f" line {row['line']}" if row.get("line") else ""
            mark = " [sliced]" if row.get("sliced") else ""
            asm = f"  {row['asm']}" if row.get("asm") else ""
            lines.append(f"    {where} {row['pj']:>14,.1f} pJ "
                         f"{row['share']:>6.1%}{asm}{line}{mark}")
    return "\n".join(lines)
