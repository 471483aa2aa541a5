"""The FLEP compilation engine facade (§4.1, Figure 3 "offline phase").

One call does what the paper's single Clang pass does:

1. parse the CUDA program,
2. transform every ``__global__`` kernel into the persistent-thread
   forms (Figure 4),
3. rewrite the host code's launches into runtime-intercepted wrappers
   (Figure 5),
4. emit the transformed source (what NVCC would then compile),
5. linear-scan the toy PTX for per-CTA resources and compute the
   persistent-launch occupancy geometry.

The (optional) offline amortizing-factor tuning runs separately
(:mod:`repro.compiler.tuning`) because it needs timing measurements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..errors import CompilationError
from ..gpu.device import GPUDeviceSpec, tesla_k40
from . import ast
from .codegen import emit_function, emit_unit
from .host_transform import RUNTIME_PREAMBLE, transform_host
from .occupancy import KernelOccupancy, analyze_kernel
from .parser import parse
from .ptx import emit_ptx
from .transforms import TransformKind, TransformedKernel, transform_kernel


@dataclass
class KernelBuildInfo:
    """Everything the offline phase produces for one kernel."""

    name: str
    occupancy: KernelOccupancy
    ptx: str
    transformed: Dict[TransformKind, TransformedKernel] = field(
        default_factory=dict
    )


@dataclass
class CompiledProgram:
    """Result of compiling one CUDA source file."""

    original_source: str
    transformed_source: str
    kernels: Dict[str, KernelBuildInfo] = field(default_factory=dict)
    rewritten_launches: int = 0

    def kernel(self, name: str) -> KernelBuildInfo:
        if name not in self.kernels:
            raise CompilationError(
                f"no kernel {name!r} in program (have {sorted(self.kernels)})"
            )
        return self.kernels[name]


class CompilationEngine:
    """Source-to-source FLEP compiler."""

    def __init__(
        self,
        device: Optional[GPUDeviceSpec] = None,
        threads_per_cta: int = 256,
        kinds: Optional[List[TransformKind]] = None,
    ):
        self.device = device or tesla_k40()
        self.threads_per_cta = threads_per_cta
        #: which Figure-4 forms to emit; the amortized+spatial form is
        #: what the runtime launches, the others document the lineage
        self.kinds = kinds or [
            TransformKind.TEMPORAL,
            TransformKind.TEMPORAL_AMORTIZED,
            TransformKind.SPATIAL,
        ]

    def compile_source(self, source: str) -> CompiledProgram:
        unit = parse(source)
        kernels = unit.kernels()
        if not kernels:
            raise CompilationError("program contains no __global__ kernels")

        build: Dict[str, KernelBuildInfo] = {}
        spatial_forms: Dict[str, TransformedKernel] = {}
        emitted: List[str] = [RUNTIME_PREAMBLE]

        for kernel in kernels:
            info = KernelBuildInfo(
                name=kernel.name,
                occupancy=analyze_kernel(
                    kernel, self.threads_per_cta, self.device
                ),
                ptx=emit_ptx(kernel),
            )
            from .validate import assert_valid

            assert_valid(kernel)
            for kind in self.kinds:
                tk = transform_kernel(kernel, kind)
                assert_valid(tk.function)  # guard-rail on our own output
                info.transformed[kind] = tk
                emitted.append(emit_function(tk.function))
            build[kernel.name] = info
            spatial_forms[kernel.name] = info.transformed[
                TransformKind.SPATIAL
                if TransformKind.SPATIAL in info.transformed
                else self.kinds[-1]
            ]

        host_result = transform_host(unit, spatial_forms)
        for wrapper in host_result.wrappers:
            emitted.append(emit_function(wrapper))
        # the rewritten host code (kernels stay for reference, marked)
        emitted.append(emit_unit(unit))

        return CompiledProgram(
            original_source=source,
            transformed_source="\n\n".join(emitted),
            kernels=build,
            rewritten_launches=host_result.rewritten_launches,
        )

    def compile_benchmark(self, benchmark: str) -> CompiledProgram:
        """Compile one of the paper's eight benchmarks from its bundled
        source."""
        from ..workloads.sources import source_of

        return self.compile_source(source_of(benchmark))
