"""The Turing-machine-to-TGD gadget from the proof of Theorem 8.

Theorem 8 shows (I, Sigma)-irrelevance undecidable by compiling a
Turing machine ``M`` and a distinguished transition ``t`` into a
constraint set ``Sigma_M`` such that the TGD ``alpha_t`` can
eventually fire iff ``M`` (run on the empty input) uses ``t``.  The
chase builds the run as a grid: each row is a configuration, ``T``
atoms are tape cells, ``H`` atoms place the head, ``L``/``R`` atoms
are the vertical edges copying the untouched tape, and
``A_delta``/``B_delta`` record which transition fired.

This module reproduces the compilation for concrete machines so the
reduction can be exercised experimentally (the undecidability itself,
of course, is a theorem, not a test).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.lang.atoms import Atom
from repro.lang.constraints import Constraint, TGD
from repro.lang.terms import Constant, Variable

#: tape-boundary and blank markers
BEGIN = Constant("B")
BLANK = Constant("_")
END = Constant("END")

Move = str  # "L", "R" or "N"


@dataclass(frozen=True)
class Transition:
    """``delta(state, read) = (next_state, write, move)``."""

    state: str
    read: str
    next_state: str
    write: str
    move: Move

    @property
    def name(self) -> str:
        return f"{self.state}_{self.read}_{self.next_state}_{self.write}_{self.move}"


@dataclass
class TuringMachine:
    """A deterministic single-tape machine run on the empty input."""

    states: List[str]
    alphabet: List[str]           # without the blank
    initial_state: str
    transitions: List[Transition]

    def symbols(self) -> List[str]:
        return list(dict.fromkeys(self.alphabet + ["_"]))

    def run(self, max_steps: int = 200) -> List[str]:
        """Reference interpreter: names of the transitions used."""
        tape: Dict[int, str] = {}
        head = 0
        state = self.initial_state
        used: List[str] = []
        lookup = {(t.state, t.read): t for t in self.transitions}
        for _ in range(max_steps):
            symbol = tape.get(head, "_")
            transition = lookup.get((state, symbol))
            if transition is None:
                break
            used.append(transition.name)
            tape[head] = transition.write
            if transition.move == "R":
                head += 1
            elif transition.move == "L":
                head = max(0, head - 1)
            state = transition.next_state
        return used


def _v(name: str) -> Variable:
    return Variable(name)


def compile_machine(machine: TuringMachine) -> Dict[str, List[Constraint]]:
    """Compile ``machine`` into ``Sigma_M``.

    Returns a mapping with the full set under ``"sigma"`` and the
    per-transition probes ``alpha_t`` under each transition name (each
    is the TGD ``A_t(x) -> B_t(x)`` whose firing witnesses use of t).
    """
    sigma: List[Constraint] = []
    symbols = [Constant(s) for s in machine.symbols()]

    # 1. Initial configuration (empty-body TGD).
    w, x, y, z = _v("w"), _v("x"), _v("y"), _v("z")
    sigma.append(TGD((), [Atom("T", (w, BEGIN, x)),
                          Atom("T", (x, BLANK, y)),
                          Atom("H", (x, Constant(machine.initial_state), y)),
                          Atom("T", (y, END, z))],
                     label="init"))

    probes: Dict[str, List[Constraint]] = {}
    for t in machine.transitions:
        a = Constant(t.read)
        a_prime = Constant(t.write)
        s = Constant(t.state)
        s_prime = Constant(t.next_state)
        xp, yp, zp, wp = _v("xp"), _v("yp"), _v("zp"), _v("wp")
        if t.move == "R":
            # 2. Move right within the tape: one TGD per next symbol b.
            for b in symbols:
                sigma.append(TGD(
                    [Atom("T", (x, a, y)), Atom("H", (x, s, y)),
                     Atom("T", (y, b, z))],
                    [Atom("L", (x, xp)), Atom("R", (y, yp)),
                     Atom("R", (z, zp)), Atom("T", (xp, a_prime, yp)),
                     Atom("T", (yp, b, zp)), Atom("H", (yp, s_prime, zp)),
                     Atom("A_" + t.name, (wp,))],
                    label=f"{t.name}_sees_{b.value}"))
            # 3. Move right past the end of the tape.  (The paper's
            # bullet 3 prints the new end marker as T(y', E, w'),
            # which stalls the grid -- the marker must follow the new
            # blank cell: T(z', E, w').)
            sigma.append(TGD(
                [Atom("T", (x, a, y)), Atom("H", (x, s, y)),
                 Atom("T", (y, END, z))],
                [Atom("L", (x, xp)), Atom("R", (y, yp)),
                 Atom("R", (z, zp)), Atom("T", (xp, a_prime, yp)),
                 Atom("T", (yp, BLANK, zp)), Atom("H", (yp, s_prime, zp)),
                 Atom("T", (zp, END, _v("we"))),
                 Atom("A_" + t.name, (wp,))],
                label=f"{t.name}_extend"))
        elif t.move == "L":
            # 4. Move left: one TGD per symbol b to the left.
            for b in symbols + [BEGIN]:
                sigma.append(TGD(
                    [Atom("T", (w, b, x)), Atom("T", (x, a, y)),
                     Atom("H", (x, s, y))],
                    [Atom("L", (w, wp)), Atom("L", (x, xp)),
                     Atom("R", (y, yp)), Atom("T", (wp, b, xp)),
                     Atom("T", (xp, a_prime, yp)),
                     Atom("H", (wp, Constant(t.next_state), xp)),
                     Atom("A_" + t.name, (_v("wa"),))],
                    label=f"{t.name}_sees_{b.value}"))
        else:
            # 5. Stay put.
            sigma.append(TGD(
                [Atom("T", (x, a, y)), Atom("H", (x, s, y))],
                [Atom("L", (x, xp)), Atom("R", (y, yp)),
                 Atom("T", (xp, a_prime, yp)),
                 Atom("H", (xp, s_prime, yp)),
                 Atom("A_" + t.name, (wp,))],
                label=f"{t.name}_stay"))
        # 6. The probe alpha_t: A_t(x) -> B_t(x).
        probe = TGD([Atom("A_" + t.name, (x,))],
                    [Atom("B_" + t.name, (x,))],
                    label=f"alpha_{t.name}")
        sigma.append(probe)
        probes[t.name] = [probe]

    # 7 and 8. Left/right copy rules, one per tape symbol (+ markers).
    for symbol in symbols + [BEGIN, END]:
        sigma.append(TGD(
            [Atom("T", (x, symbol, y)), Atom("L", (y, yp))],
            [Atom("L", (x, xp)), Atom("T", (xp, symbol, yp))],
            label=f"copy_left_{symbol.value}"))
        sigma.append(TGD(
            [Atom("T", (x, symbol, y)), Atom("R", (x, xp))],
            [Atom("T", (xp, symbol, yp)), Atom("R", (y, yp))],
            label=f"copy_right_{symbol.value}"))

    return {"sigma": sigma, **probes}


def sample_halting_machine() -> TuringMachine:
    """Writes two 1s moving right, then halts (uses both transitions)."""
    return TuringMachine(
        states=["s0", "s1", "halt"],
        alphabet=["1"],
        initial_state="s0",
        transitions=[
            Transition("s0", "_", "s1", "1", "R"),
            Transition("s1", "_", "halt", "1", "R"),
        ])


def sample_unreachable_transition_machine() -> TuringMachine:
    """Halts immediately in s0; the s9 transition can never be used."""
    return TuringMachine(
        states=["s0", "s9"],
        alphabet=["1"],
        initial_state="s0",
        transitions=[
            Transition("s9", "1", "s9", "1", "N"),  # unreachable
        ])
