"""CloudMatcher: services, workflow graphs of services, engines, metamanager, facade."""

from repro.cloud.cloudmatcher import (
    CloudMatcher01,
    CloudMatcher10,
    CloudMatcher20,
    TaskResult,
)
from repro.cloud.cost import CostModel, TaskCostReport
from repro.cloud.dag import Fragment, build_falcon_workflow, decompose_fragments
from repro.cloud.engines import ExecutionEngine, FragmentExecution, MetaManager
from repro.cloud.services import (
    DEFAULT_REGISTRY,
    Service,
    ServiceKind,
    ServiceRegistry,
    build_default_registry,
)
from repro.falcon.falcon import WorkflowContext

__all__ = [
    "CloudMatcher01",
    "CloudMatcher10",
    "CloudMatcher20",
    "CostModel",
    "DEFAULT_REGISTRY",
    "ExecutionEngine",
    "Fragment",
    "FragmentExecution",
    "MetaManager",
    "Service",
    "ServiceKind",
    "ServiceRegistry",
    "TaskCostReport",
    "TaskResult",
    "WorkflowContext",
    "build_default_registry",
    "build_falcon_workflow",
    "decompose_fragments",
]
