"""Emission and compilation of pipeline descriptions.

dgen's output — the *pipeline description* — is Python source text.  In the
paper the description is Rust code compiled together with dsim; here the
source is compiled with :func:`compile`/``exec`` into a fresh namespace and
wrapped in a :class:`PipelineDescription` object that dsim consumes.  The
source text itself is kept around: it is what the Figure 6 experiment
inspects, and writing it to disk (``druzhba-dgen --output``) lets users read
exactly what will be simulated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

from ..errors import CodegenError
from ..hardware import PipelineSpec
from ..ir import Module, to_source
from ..machine_code.pairs import MachineCode
from .codegen import OPT_LEVEL_NAMES, OPT_UNOPTIMIZED

PathLike = Union[str, Path]

#: Type of a generated stage function: (phv_read, stage_state, values) -> write containers.
StageFunction = Callable[[Sequence[int], List[List[int]], Optional[Dict[str, int]]], List[int]]


@dataclass
class PipelineDescription:
    """A compiled pipeline description plus its provenance.

    Attributes
    ----------
    spec:
        The hardware configuration the description was generated for.
    opt_level:
        0 (unoptimised), 1 (SCC propagation), 2 (SCC propagation +
        function inlining) or 3 (fused trace loop).
    machine_code:
        The machine code baked into the description (``None`` only for the
        unoptimised level, where machine code is looked up at runtime).
    module:
        The structured IR of the generated module.
    source:
        The rendered Python source text.
    namespace:
        The executed module namespace; ``namespace["STAGE_FUNCTIONS"]`` holds
        the per-stage entry points.
    """

    spec: PipelineSpec
    opt_level: int
    machine_code: Optional[MachineCode]
    module: Module
    source: str
    namespace: Dict[str, object] = field(repr=False, default_factory=dict)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def stage_functions(self) -> List[StageFunction]:
        """The generated per-stage functions, in pipeline order."""
        functions = self.namespace.get("STAGE_FUNCTIONS")
        if not isinstance(functions, list) or len(functions) != self.spec.depth:
            raise CodegenError("pipeline description namespace is missing STAGE_FUNCTIONS")
        return functions  # type: ignore[return-value]

    @property
    def fused_function(self) -> Optional[Callable]:
        """The fused ``run_trace(inputs, state, values)`` entry point, if emitted.

        Present only at opt level 3; :class:`repro.dsim.RMTSimulator` uses it
        as a fast path that bypasses the per-tick pipeline machinery.
        """
        function = self.namespace.get("RUN_TRACE")
        return function if callable(function) else None

    @property
    def opt_level_name(self) -> str:
        """Human-readable optimisation level name."""
        return OPT_LEVEL_NAMES[self.opt_level]

    @property
    def needs_runtime_values(self) -> bool:
        """True when stage functions read machine code from the ``values`` dict at runtime."""
        return self.opt_level == OPT_UNOPTIMIZED

    def runtime_values(self) -> Dict[str, int]:
        """The ``values`` hash table handed to stage functions at simulation time."""
        if self.machine_code is None:
            return {}
        return self.machine_code.as_dict()

    def initial_state(self, initial_value: int = 0) -> List[List[List[int]]]:
        """Fresh per-stage, per-stateful-ALU state vectors (all ``initial_value``)."""
        return [
            [[initial_value] * self.spec.num_state_vars for _ in range(self.spec.width)]
            for _ in range(self.spec.depth)
        ]

    def source_line_count(self) -> int:
        """Number of non-blank source lines (the Figure 6 code-size metric)."""
        return sum(1 for line in self.source.splitlines() if line.strip())

    def function_count(self) -> int:
        """Number of functions defined in the description (helpers included)."""
        return len(self.module.functions)

    def save_source(self, path: PathLike) -> Path:
        """Write the generated source to ``path`` and return the path."""
        path = Path(path)
        path.write_text(self.source)
        return path


def render(module: Module) -> str:
    """Render an IR module to Python source text."""
    return to_source(module)


def compile_description(
    spec: PipelineSpec,
    module: Module,
    opt_level: int,
    machine_code: Optional[MachineCode],
    module_name: str = "druzhba_pipeline_description",
) -> PipelineDescription:
    """Render, compile and execute a generated module.

    The module is executed in a fresh, empty namespace: generated code is
    self-contained by construction (it only uses builtins), which mirrors the
    paper's standalone generated Rust file.
    """
    source = render(module)
    namespace: Dict[str, object] = {"__name__": module_name}
    code = compile(source, filename=f"<{module_name}>", mode="exec")
    exec(code, namespace)  # noqa: S102 - executing our own generated code is the point of dgen
    description = PipelineDescription(
        spec=spec,
        opt_level=opt_level,
        machine_code=machine_code,
        module=module,
        source=source,
        namespace=namespace,
    )
    # Touch the property once so malformed generation fails at build time, not
    # in the middle of a simulation run.
    _ = description.stage_functions
    return description
