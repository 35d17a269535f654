"""The exception types the ``agentdag`` command raises and catches.

They live in a module that imports nothing, so the command catches them
without loading the configuration, the adapters or the judge. ``config`` and
``adapters.base`` bind the same classes, and their users import them there.
"""


class ConfigError(ValueError):
    """Invalid or unreadable run configuration (a usage error, not a bug)."""


class AdapterError(RuntimeError):
    """Transport-level failure talking to a policy or role backend."""


class SandboxError(RuntimeError):
    """Sandbox infrastructure failure — distinct from any code verdict."""
