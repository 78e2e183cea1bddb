"""Certain answers for query jobs: Section 5's answering step.

A query job -- a :class:`~repro.service.jobs.ChaseJob` with a
``query`` -- asks for the certain answers of a conjunctive query over
the knowledge base ``(I, Sigma)``: Theorem 9 / Corollary 1 as a
service request.  It is parsed, planned, fingerprinted, cached, pooled
and chased exactly like a chase job (:func:`repro.service.jobs
.execute_job`); ``repro query`` is the CLI entry point, and
``repro batch`` / ``repro serve`` accept query specs alongside chase
specs.  After the chase, :func:`answer_query` turns its result into
answers:

1. on termination, optionally rewrite the query through Section 4's
   semantic optimization (:func:`repro.kb.answering.optimize_query` --
   chase the frozen query, minimize via the core) and evaluate the
   rewriting: ``I^Sigma`` satisfies ``Sigma``, so equivalent queries
   agree there;
2. on a budget abort, fall back to the **depth-bounded chase** of
   :mod:`repro.kb.answering` and evaluate the *original* query on the
   finite prefix (sound for constants-only answers; the prefix need
   not satisfy ``Sigma``, so rewritings are not used) -- the result is
   flagged ``truncated``.  A prefix that meets a failing EGD shows the
   knowledge base inconsistent, and the job is answered as if the
   exact chase had failed;
3. evaluate through the compiled id-level path of
   :mod:`repro.cq.evaluate` and return the answers as the JSON text of
   canonically sorted encoded rows
   (:func:`repro.service.serialize.encode_rows`).

Certain answers are constants-only, so the encoded result is
independent of null labeling -- byte-identical across workers and
process trees by construction, which makes every deterministic chase
status safely cacheable under the job fingerprint.
"""

from __future__ import annotations

from typing import List

from repro.chase.result import ChaseResult, ChaseStatus
from repro.kb.answering import (default_depth, depth_bounded_chase,
                                optimize_query)
from repro.lang.constraints import Constraint
from repro.lang.errors import ChaseFailure
from repro.lang.instance import Instance
from repro.lang.parser import render_query
from repro.service.jobs import ChaseJob
from repro.service.serialize import encode_rows

__all__ = ["answer_query", "QueryJob"]

#: A query job is a ``ChaseJob(..., query=...)``.  This alias has two
#: reasons to exist and no others: ``from repro import QueryJob``
#: keeps working, and perfbench's traced run (``perfbench/layers.py``)
#: looks ``QueryJob.fingerprint`` up by module path in this module.
QueryJob = ChaseJob


def answer_query(job: ChaseJob, result: ChaseResult, instance: Instance,
                 sigma: List[Constraint]) -> dict:
    """Section 5's answering step for a query job whose chase gave
    ``result`` (``instance`` and ``sigma`` are what it chased).

    Returns the :class:`~repro.service.jobs.JobResult` fields a query
    job reports in place of a chase job's facts: ``answers_json`` (the
    text of the sorted rows, constants only), the evaluated ``query``
    text and ``truncated`` --
    or, for an inconsistent knowledge base, only the query text and no
    answers.  The chase's own fields (``status``, ``new_nulls``,
    ``failure_reason``) are set by the caller for both job kinds; the
    fields returned here override them when only the depth-bounded
    fallback meets the failing EGD.
    """
    if result.status is ChaseStatus.FAILED:
        # Inconsistent knowledge base: the chase result is undefined
        # (Section 2), so there is no instance to answer over; the
        # chase's failure reason says why, and no answers are made up.
        return {"query": render_query(job.query)}
    target = job.query
    truncated = False
    if result.status is ChaseStatus.TERMINATED:
        evaluation_instance = result.instance
        if job.optimize:
            target = optimize_query(job.query, sigma,
                                    depth_limit=job.depth_limit)
    else:
        truncated = True
        depth = (job.depth_limit if job.depth_limit is not None
                 else default_depth(job.query, sigma))
        # The fallback honours the job's budgets too: total chase work
        # stays within ~2x the declared budget, so a divergent
        # request's blast radius remains bounded even without the
        # pool's hard-timeout backstop.
        try:
            evaluation_instance = depth_bounded_chase(
                instance, sigma, depth, max_steps=job.max_steps,
                max_facts=job.max_facts,
                wall_clock=job.wall_clock).instance
        except ChaseFailure as failure:
            # The prefix met a failing EGD: reply as for a failed exact
            # chase.  A wall-clock stop keeps its status, which is never
            # cached: whether the prefix got that far depends on timing.
            reply = {"failure_reason": str(failure),
                     "query": render_query(job.query)}
            if result.status is not ChaseStatus.EXCEEDED_WALL_CLOCK:
                reply["status"] = ChaseStatus.FAILED.value
            return reply
    answers = target.evaluate(evaluation_instance, constants_only=True)
    return {"answers_json": encode_rows(answers),
            "query": render_query(target), "truncated": truncated}
