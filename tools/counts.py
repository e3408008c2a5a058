"""Count the evaluator's calls on every job of the benchmark's workloads.

    python3 tools/counts.py TREE [--seed N]
        [--workloads rewrite_equiv,model_sweep,...]

TREE is a checkout of the repository.  The tool imports the tree's own
``src/`` and ``perfbench/workloads.py``, builds each workload's job list
from the seed, and runs every job once in this process, in order, with
counting wrappers around ``Evaluator._eval``, ``Evaluator._eval_raw``,
``Evaluator._kernel``, ``Evaluator._pick``, ``Evaluator._largest``,
``Evaluator._conflicts`` and ``Evaluator._team``, around the search routes
``Evaluator._exists_sat``, ``_exists``, ``_coherent_split``,
``_down_split`` and ``_generic_split``, around the evaluator module's
``tarski_eval``, and around its ``_depth_first`` and the step function
each search passes it.  It prints one JSON object: workload -> {"_eval":
calls, "_eval_raw": calls, "_kernel": calls, "_pick": calls, "_largest":
calls, "_conflicts": calls, "_team": calls, one count per search route,
"_exists_determined": calls, "_settled": calls, "_search_states": states,
"tarski_eval": calls, "_nodes_built": nodes, "failed": jobs that raised, "top": [label,
calls] of the job with the most ``_eval`` calls}.  A method, function,
counter or formula property the tree does not have counts 0, so older
trees can be compared.

``_eval`` counts the evaluations asked for from outside the loop that
decides a tree of ``&``, ``||`` and ``~``, not the memo hits that loop
reads itself; ``_eval_raw`` counts the verdicts computed by a rule other
than that loop.  ``_eval_raw`` and ``_kernel`` are a machine-independent
fingerprint of the searches: a change that keeps the candidates the
evaluator tries, their order, and the evaluations that decide them keeps
both counts on every workload, whatever the host's speed.  Reading the
coherent split's pair conflicts from value classes (``_conflicts``) kept
the colouring search but dropped the evaluation of each pair of rows, so
both counts fell on ``hard_check`` and ``model_sweep`` by design.
``_pick`` counts the projections and value-tuple maps the evaluator
computes, its work below the atoms and the searches.
``_largest`` counts the greatest satisfying subteams the searches ask
for, every flat side of a ``|`` chain and every union-closed quantifier
among them, not the ones those computations need in turn.
``_conflicts`` counts the conflict tables of the coherent split, one per
distinct side of a split of two or more rows.  ``_team`` counts the
conversions of a ``Team`` to a mask, one per ``Team`` that enters the
evaluator; the ``equivalent`` and ``check_boundedness`` sweeps decide
their cells from masks and convert none.  The route
counts show which searches a workload reaches: the bounded subteam search
(``_exists_sat``: a single side of a ``|`` chain that is not union closed,
``<>``, and the first side of a general split), the existential's witness
search (``_exists``, for a body that is not union closed: one value per
class of rows that agree on D if the body forces ``dep(D; v)``, else a
nonempty set of values per row), and the three split solvers of ``|``
chains with two or more such sides.  A route that reads 0 on every
workload is guarded by the tests alone.  ``_exists_determined`` counts the
``_exists`` calls on a nonempty team whose body forces ``dep(D; v)`` for
the bound variable v, read from the body's ``Formula.determiners`` as the
tests' spy reads it; ``const(v)`` makes one class.  ``_settled`` counts
those of them whose body ``Evaluator._settled`` changes: it drops the
conjuncts on the body's ``&`` spine that every candidate satisfies by
construction, ``const(v)`` and ``dep(D'; v)`` with D' holding D; it reads
0 on a tree without that method.  ``_search_states``
counts the states that the steps of ``_depth_first`` yield, the nodes of
every split, colouring and dependence witness search below their roots:
a measure of search effort that does not depend on the host's speed.
``tarski_eval`` counts the calls made from the evaluator module (rows and
sentences it restricts by, custom atoms it decides, upward-closure
checks), not the function's calls on its own subformulas.
``_nodes_built`` counts the formula nodes the jobs create, not the hits of
the interning table, read from ``syntax._UIDS``, the counter that numbers
new nodes; a workload's jobs are built before the first read.  A job that
raises is counted up to the point where it raised, and its exception is
printed on stderr.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import traceback
from pathlib import Path

COUNTED = ("_eval", "_eval_raw", "_kernel", "_pick", "_largest", "_conflicts",
           "_team", "_exists_sat", "_exists", "_coherent_split", "_down_split",
           "_generic_split")
#: counted functions of the evaluator module
FUNCTIONS = ("tarski_eval",)


def count_calls(tree: Path, seed: int, names: list[str]) -> dict:
    sys.path[:0] = [str(tree / "src"), str(tree / "tests"), str(tree / "perfbench")]
    import workloads
    from teamsem import evaluator

    calls = dict.fromkeys(COUNTED + ("_exists_determined", "_settled", "_search_states")
                          + FUNCTIONS + ("_nodes_built",), 0)
    uids = getattr(sys.modules.get("teamsem.syntax"), "_UIDS", None)

    def counted(name, method):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return method(*args, **kwargs)
        return wrapper

    for owner, members in ((evaluator.Evaluator, COUNTED), (evaluator, FUNCTIONS)):
        for name in members:
            if hasattr(owner, name):
                setattr(owner, name, counted(name, getattr(owner, name)))
    if hasattr(evaluator.Evaluator, "_exists"):
        exists = evaluator.Evaluator._exists

        def determined(self, u, mask, v, body, *rest):
            if mask and v in getattr(body, "determiners", ()):
                calls["_exists_determined"] += 1
            return exists(self, u, mask, v, body, *rest)
        evaluator.Evaluator._exists = determined
    if hasattr(evaluator.Evaluator, "_settled"):
        settle = evaluator.Evaluator._settled

        def settled(self, body, *rest):
            out = settle(self, body, *rest)
            calls["_settled"] += out is not body
            return out
        evaluator.Evaluator._settled = settled
    if hasattr(evaluator, "_depth_first"):
        depth_first = evaluator._depth_first

        def searched(root, depth, step, done):
            def counted_step(level, state):
                for found in step(level, state):
                    calls["_search_states"] += 1
                    yield found
            return depth_first(root, depth, counted_step, done)
        evaluator._depth_first = searched
    out = {}
    for workload in names:
        jobs = workloads.WORKLOADS[workload](random.Random(seed))
        before, failed, top = dict(calls), 0, [None, -1]
        first_uid = next(uids) if uids is not None else 0
        for job in jobs:
            start = calls["_eval"]
            try:
                job.run()
            except Exception:  # counted as far as it ran, and reported
                failed += 1
                print(f"{workload}: {job.label}", file=sys.stderr)
                traceback.print_exc()
            if calls["_eval"] - start > top[1]:
                top = [job.label, calls["_eval"] - start]
        if uids is not None:  # reading the counter takes one uid itself
            calls["_nodes_built"] += next(uids) - first_uid - 1
        out[workload] = {**{name: calls[name] - before[name] for name in calls},
                         "failed": failed, "top": top}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("tree", type=Path)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workloads",
                    default="rewrite_equiv,model_sweep,hard_check,witness_search")
    args = ap.parse_args(argv)
    tree = args.tree.resolve()
    if not (tree / "perfbench" / "workloads.py").is_file():
        ap.error(f"{tree} has no perfbench/workloads.py")
    print(json.dumps(count_calls(tree, args.seed, args.workloads.split(","))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
