"""Classical block designs, projector-family quantum designs, and the
completely positive maps connecting them: classification, counting-identity
checks, generation, exhaustive search, and bit-exact file formats.

The package exports exactly its modules' ``__all__`` lists and imports a
module the first time one of its names is asked for (PEP 562)."""

import importlib

__version__ = "0.1.0"

_MODULES = ("linalg", "classical", "quantum", "cpmaps", "catalog")


def __getattr__(name: str):
    # ``from designkit import cli`` asks for the submodule here first; refusing it
    # lets the import system load that one module and nothing else.
    if name == "cli" or name in _MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    modules = (importlib.import_module(f"{__name__}.{stem}") for stem in _MODULES)
    if name == "__all__":
        return ["__version__", *(n for module in modules for n in module.__all__)]
    for module in modules:
        if name in module.__all__:
            return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return __getattr__("__all__")
