"""The status-quo microservice stack (the paper's comparison baseline).

Name-addressed HTTP services with versioned, self-describing payloads —
the world of §1's challenges C1–C5.  The same component implementations
run unchanged behind it (see :mod:`repro.baseline.service`), so every
measured difference against :mod:`repro.runtime` is the deployment model,
never the business logic.
"""

from repro.baseline.service import (
    BaselineApp,
    MicroserviceHost,
    ServiceMesh,
    deploy_baseline,
)

__all__ = [
    "BaselineApp",
    "MicroserviceHost",
    "ServiceMesh",
    "deploy_baseline",
]
