"""Homomorphism search and constraint-satisfaction checks."""

from repro.homomorphism.engine import (Assignment, apply_assignment,
                                       find_homomorphism, find_homomorphisms,
                                       find_homomorphisms_through,
                                       has_homomorphism,
                                       homomorphism_between,
                                       instance_maps_into,
                                       is_endomorphism_proper,
                                       null_renaming_equivalent)
from repro.homomorphism.extend import (all_satisfied,
                                       constraint_satisfied_for,
                                       freeze_assignment,
                                       freeze_assignment_ids,
                                       head_extends, is_satisfied,
                                       violation)
from repro.homomorphism.plan import JoinPlan, compile_plan

__all__ = [
    "Assignment", "apply_assignment", "find_homomorphism",
    "find_homomorphisms", "find_homomorphisms_through",
    "has_homomorphism", "homomorphism_between", "instance_maps_into",
    "is_endomorphism_proper", "null_renaming_equivalent",
    "all_satisfied", "constraint_satisfied_for",
    "freeze_assignment", "freeze_assignment_ids", "head_extends",
    "is_satisfied", "violation", "JoinPlan", "compile_plan",
]
