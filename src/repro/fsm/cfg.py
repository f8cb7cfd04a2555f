"""Control-flow graph extraction and analysis for FSMs.

The SCFI pass needs the full list of control-flow edges ``t in CFG`` --
including the *implicit stay* edge of every state whose guard chain is not
exhaustive -- because each edge receives its own transition modifier.  The
helpers here build that edge list and answer reachability and structural
queries over it.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Set

from repro.fsm.model import Fsm, Guard, Transition


class CfgEdge(NamedTuple):
    """One control-flow edge of the FSM.

    ``kind`` is ``"explicit"`` for a declared transition, ``"stay"`` for the
    implicit self-loop taken when no guard matches.  ``index`` numbers the
    edges of one source state in priority order; the stay edge always comes
    last.
    """

    src: str
    dst: str
    guard: Guard
    kind: str
    index: int

    @property
    def is_stay(self) -> bool:
        return self.kind == "stay"


def control_flow_edges(fsm: Fsm) -> List[CfgEdge]:
    """All CFG edges of the FSM, including implicit stay edges."""
    edges: List[CfgEdge] = []
    for state in fsm.states:
        outgoing = fsm.transitions_from(state)
        for index, transition in enumerate(outgoing):
            edges.append(
                CfgEdge(
                    src=state,
                    dst=transition.dst,
                    guard=transition.guard,
                    kind="explicit",
                    index=index,
                )
            )
        if fsm.has_default_stay(state):
            edges.append(
                CfgEdge(
                    src=state,
                    dst=state,
                    guard=Guard.true(),
                    kind="stay",
                    index=len(outgoing),
                )
            )
    return edges


def reachable_states(fsm: Fsm) -> Set[str]:
    """States reachable from the reset state along CFG edges."""
    successors: Dict[str, Set[str]] = {}
    for edge in control_flow_edges(fsm):
        successors.setdefault(edge.src, set()).add(edge.dst)
    reached = {fsm.reset_state}
    frontier = [fsm.reset_state]
    while frontier:
        for dst in successors.get(frontier.pop(), ()):
            if dst not in reached:
                reached.add(dst)
                frontier.append(dst)
    return reached


def unreachable_states(fsm: Fsm) -> Set[str]:
    """States that can never be entered from reset (candidates for review)."""
    return set(fsm.states) - reachable_states(fsm)


def terminal_states(fsm: Fsm) -> Set[str]:
    """States whose only outgoing CFG edge is the stay edge."""
    terminals = set()
    for state in fsm.states:
        explicit = [t for t in fsm.transitions_from(state) if t.dst != state]
        if not explicit:
            terminals.add(state)
    return terminals


def transition_count(fsm: Fsm, include_stay: bool = True) -> int:
    """Number of CFG edges (the paper's formal FSM has 14 of these)."""
    edges = control_flow_edges(fsm)
    if include_stay:
        return len(edges)
    return sum(1 for e in edges if not e.is_stay)


def validate_determinism(fsm: Fsm) -> List[str]:
    """Report states whose guard chain hides later transitions.

    A transition is shadowed when an earlier transition of the same state has
    a guard that is implied by (a subset of) its literals -- the later guard
    can then never fire.  The check is syntactic but catches the common
    specification mistakes in hand-written controllers.
    """
    problems: List[str] = []
    for state in fsm.states:
        outgoing = fsm.transitions_from(state)
        for earlier_index, earlier in enumerate(outgoing):
            earlier_terms = set(earlier.guard.terms)
            for later in outgoing[earlier_index + 1 :]:
                if earlier_terms.issubset(set(later.guard.terms)):
                    problems.append(
                        f"state {state!r}: transition to {later.dst!r} is shadowed by "
                        f"earlier transition to {earlier.dst!r}"
                    )
    return problems


def edges_from(fsm: Fsm, state: str) -> List[CfgEdge]:
    """CFG edges leaving ``state`` in priority order (stay edge last)."""
    return [edge for edge in control_flow_edges(fsm) if edge.src == state]
