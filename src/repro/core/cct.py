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
from typing import Iterable, Iterator

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


def _heaviest_first(node: CCTNode) -> Iterator[CCTNode]:
    """``node``'s children, heaviest subtree first (ties in insertion order)."""
    return iter(sorted(node.children.values(), key=lambda child: -child.total_weight()))


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

    # -- traversal -----------------------------------------------------------

    def walk(self) -> Iterator[tuple[tuple[Frame, ...], CCTNode]]:
        """Yield ``(path, node)`` for every node below the root, depth first."""
        pending = [((), iter(self.root.children.items()))]
        while pending:
            path, children = pending[-1]
            for frame, child in children:
                child_path = path + (frame,)
                yield child_path, child
                pending.append((child_path, iter(child.children.items())))
                break
            else:
                pending.pop()

    def total_runtime(self) -> float:
        return self.root.total_runtime()

    def total_init(self) -> float:
        return self.root.total_init()

    # -- rendering -------------------------------------------------------------

    def render(self, max_depth: int = 6, min_weight: float = 0.0) -> str:
        """Human-readable tree (heaviest subtrees first)."""
        lines: list[str] = []
        pending = [(0, _heaviest_first(self.root))] if max_depth >= 0 else []
        while pending:
            depth, children = pending[-1]
            for child in children:
                weight = child.total_weight()
                if weight < min_weight:
                    continue
                frame = child.frame
                lines.append(
                    f"{'  ' * depth}{frame.function} "
                    f"({frame.file}:{frame.line}) "
                    f"total={weight:.1f} self={child.self_weight:.1f}"
                )
                if depth < max_depth:
                    pending.append((depth + 1, _heaviest_first(child)))
                break
            else:
                pending.pop()
        return "\n".join(lines)
