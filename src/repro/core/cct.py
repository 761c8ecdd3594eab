"""Calling Context Tree (CCT) with upward sample escalation.

The CCT (Ammons/Ball/Larus [21]; §IV-A of the paper) stores every sampled
call path as a root-to-leaf chain.  Two properties matter for SLIMSTART:

* **Escalation** — a node's *total* weight includes everything sampled in
  its subtree, so an orchestrator library that delegates all real work to
  callees (Fig. 5's ``Lib-1``, 1 % of raw samples) still shows the full
  activity it coordinates.
* **Context preservation** — the same function reached through different
  call paths occupies different nodes, so per-path usage of a multi-path
  library (Fig. 5's ``Lib-6``) is never conflated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from repro.core.samples import Frame, Sample, SampleSet

_ROOT_FRAME = Frame(file="<root>", function="<root>")


@dataclass(slots=True)
class CCTNode:
    """One calling context: a frame plus per-kind self weights."""

    frame: Frame
    children: dict[Frame, "CCTNode"] = field(default_factory=dict)
    self_runtime: float = 0.0
    self_init: float = 0.0

    @property
    def self_weight(self) -> float:
        return self.self_runtime + self.self_init

    def child(self, frame: Frame) -> "CCTNode":
        node = self.children.get(frame)
        if node is None:
            node = CCTNode(frame=frame)
            self.children[frame] = node
        return node

    def total_runtime(self) -> float:
        """Escalated runtime weight: self plus the entire subtree."""
        return self.self_runtime + sum(
            child.total_runtime() for child in self.children.values()
        )

    def total_init(self) -> float:
        return self.self_init + sum(
            child.total_init() for child in self.children.values()
        )

    def total_weight(self) -> float:
        return self.total_runtime() + self.total_init()


class CallingContextTree:
    """The profiler's accumulated view of where time is spent."""

    def __init__(self) -> None:
        self.root = CCTNode(frame=_ROOT_FRAME)

    # -- construction ------------------------------------------------------

    def add_sample(self, sample: Sample) -> None:
        """Insert one root-first stack; weight lands on the leaf node."""
        node = self.root
        for frame in sample.path:
            node = node.child(frame)
        if sample.kind == "init":
            node.self_init += sample.weight
        else:
            node.self_runtime += sample.weight

    @classmethod
    def from_samples(cls, samples: Iterable[Sample] | SampleSet) -> "CallingContextTree":
        tree = cls()
        for sample in samples:
            tree.add_sample(sample)
        return tree

    def merge(self, other: "CallingContextTree") -> None:
        """Fold another CCT into this one (profile aggregation, §IV-D)."""

        def fold(target: CCTNode, source: CCTNode) -> None:
            target.self_runtime += source.self_runtime
            target.self_init += source.self_init
            for frame, source_child in source.children.items():
                fold(target.child(frame), source_child)

        fold(self.root, other.root)

    # -- traversal -----------------------------------------------------------

    def walk(self) -> Iterator[tuple[tuple[Frame, ...], CCTNode]]:
        """Yield ``(path, node)`` for every node below the root."""

        def visit(
            node: CCTNode, path: tuple[Frame, ...]
        ) -> Iterator[tuple[tuple[Frame, ...], CCTNode]]:
            for frame, child in node.children.items():
                child_path = path + (frame,)
                yield child_path, child
                yield from visit(child, child_path)

        yield from visit(self.root, ())

    def node_count(self) -> int:
        return sum(1 for _ in self.walk())

    def total_runtime(self) -> float:
        return self.root.total_runtime()

    def total_init(self) -> float:
        return self.root.total_init()

    # -- queries -------------------------------------------------------------

    def escalated_weights(
        self, key: Callable[[Frame], str | None]
    ) -> dict[str, float]:
        """Escalated *runtime* weight per attribution key.

        A sample's weight counts toward key ``k`` when any frame on its
        path maps to ``k`` — and exactly once, however many of the path's
        frames map to ``k``.  This is the CCT-escalation semantics of
        §IV-A: callee activity propagates to every distinct caller group
        above it, without double counting inside one group.
        """
        totals: dict[str, float] = {}

        def visit(node: CCTNode, active: frozenset[str]) -> None:
            frame_key = key(node.frame)
            here = active
            if frame_key is not None and frame_key not in here:
                here = here | {frame_key}
            if node.self_runtime > 0:
                for group in here:
                    totals[group] = totals.get(group, 0.0) + node.self_runtime
            for child in node.children.values():
                visit(child, here)

        for child in self.root.children.values():
            visit(child, frozenset())
        return totals

    def paths_to(
        self, predicate: Callable[[Frame], bool], limit: int = 5
    ) -> list[tuple[tuple[Frame, ...], float]]:
        """Heaviest call paths whose final frame satisfies ``predicate``.

        Returns ``(path, escalated weight)`` pairs, heaviest first — the
        "Call Path" section of the SLIMSTART summary reports (Tables IV/V).
        """
        matches: list[tuple[tuple[Frame, ...], float]] = []
        for path, node in self.walk():
            if predicate(path[-1]):
                matches.append((path, node.total_runtime() + node.total_init()))
        matches.sort(key=lambda item: (-item[1], item[0]))
        return matches[:limit]

    # -- rendering / serialization --------------------------------------------

    def render(self, max_depth: int = 6, min_weight: float = 0.0) -> str:
        """Human-readable tree (heaviest subtrees first)."""
        lines: list[str] = []

        def visit(node: CCTNode, depth: int) -> None:
            if depth > max_depth:
                return
            ordered = sorted(
                node.children.values(),
                key=lambda child: -child.total_weight(),
            )
            for child in ordered:
                weight = child.total_weight()
                if weight < min_weight:
                    continue
                frame = child.frame
                lines.append(
                    f"{'  ' * depth}{frame.function} "
                    f"({frame.file}:{frame.line}) "
                    f"total={weight:.1f} self={child.self_weight:.1f}"
                )
                visit(child, depth + 1)

        visit(self.root, 0)
        return "\n".join(lines)

    def to_dict(self) -> dict:
        def encode(node: CCTNode) -> dict:
            return {
                "frame": [node.frame.file, node.frame.function, node.frame.line],
                "runtime": node.self_runtime,
                "init": node.self_init,
                "children": [encode(child) for child in node.children.values()],
            }

        return encode(self.root)

    @classmethod
    def from_dict(cls, payload: dict) -> "CallingContextTree":
        tree = cls()

        def decode(data: dict) -> CCTNode:
            file, function, line = data["frame"]
            node = CCTNode(frame=Frame(file=file, function=function, line=line))
            node.self_runtime = data["runtime"]
            node.self_init = data["init"]
            for child_data in data["children"]:
                child = decode(child_data)
                node.children[child.frame] = child
            return node

        tree.root = decode(payload)
        return tree
