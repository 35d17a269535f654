"""Adapter layer: policy models, role backends, and code executors.

Names load on first use, as in the top-level package.
"""

from .. import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "base": (
        "AdapterError", "AgentRequest", "AgentResponse", "MessagePart", "PolicyAdapter",
        "RoleBackend", "Sandbox", "SandboxError", "ScriptExhausted", "TokenUsage",
        "estimate_tokens",
    ),
    "remote": ("RemotePolicy", "RemoteRoleBackend"),
    "sandbox": ("LocalExecutor",),
    "scripted": ("ScriptedPolicy", "ScriptedRoleBackend"),
})
