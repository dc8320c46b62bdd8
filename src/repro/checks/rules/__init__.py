"""The shipped rule set, one module per invariant family.

* :mod:`.rng` — RNG discipline (RNG001, RNG002);
* :mod:`.determinism` — wall-clock/entropy and ordering hazards in
  simulation and experiment code (DET001, DET002, DET003);
* :mod:`.process` — process-boundary safety in the sweep runner
  (PROC001, PROC002);
* :mod:`.exceptions` — exception hygiene (EXC001, EXC002);
* :mod:`.controlplane` — control-plane discipline: circuit-switch
  mutations flow through the controller's retry/degradation wrapper
  (CHS001);
* :mod:`.perf` — engine hot-path discipline: no full active-set sweeps
  outside the sanctioned helpers (PERF001);
* :mod:`.service` — event-loop and federation discipline in the
  recovery service: no blocking calls inside ``repro.service``
  coroutines (SVC001); controller commits and cluster mutation flow
  through the WAL/federation seams (SVC014);
* :mod:`.concurrency` — interleaving discipline over the whole-program
  interference engine: await-interference on shared state (SVC010),
  fire-and-forget tasks (SVC011), lock discipline (SVC012), coroutine
  mutation of module globals (SVC013);
* :mod:`.interproc` — whole-program rules over the linked project
  model: transitive seed taint (RNG010), payload reachability
  (PROC010), helper circuit mutation (CHS010), import cycles (IMP001),
  dead exports (DEAD001).

Importing a module registers its rules as a side effect of the
``@register`` / ``@register_project`` decorators.  A module listed in
this package but missing from the import below would silently drop its
rules — which is exactly what DEAD001 checks for.
"""

from __future__ import annotations

from . import (
    concurrency,
    controlplane,
    determinism,
    exceptions,
    interproc,
    perf,
    process,
    rng,
    service,
)

__all__ = [
    "concurrency",
    "controlplane",
    "determinism",
    "exceptions",
    "interproc",
    "perf",
    "process",
    "rng",
    "service",
]
