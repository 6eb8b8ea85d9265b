"""The paper's primary contribution: the bespoke sequential SVM circuit.

:class:`SequentialSVMDesign` assembles the four blocks of Fig. 1 — control,
storage, compute engine and voter — around a quantized OvR linear SVM,
prices the resulting circuit with the printed PDK, simulates it cycle by
cycle, and exports behavioural Verilog.

Architecture recap (one classification = ``n`` cycles, ``n`` = #classes):

* the control counter selects support vector ``k`` (cycle ``k``);
* bespoke MUX storage delivers the hardwired weights and bias of that
  support vector;
* the folded compute engine (``m`` multipliers + multi-operand adder)
  produces the integer score;
* the sequential argmax voter keeps the best (score, classifier id) pair;
  after the final cycle the id register holds the prediction.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.compute_engine import FoldedComputeEngine
from repro.core.control import SequentialController
from repro.core.report import ClassifierHardwareReport
from repro.core.storage import CrossbarRomStorage, MuxStorage, storage_bits_for_model
from repro.core.voter import SequentialArgmaxVoter
from repro.hw.area import AreaAnalyzer
from repro.hw.cells import CellLibrary
from repro.hw.netlist import HardwareBlock, parallel
from repro.hw.pdk import EGFET_PDK
from repro.hw.power import PowerAnalyzer
from repro.hw.simulate import SequentialDatapathSimulator, SimulationResult
from repro.hw.synthesis import estimate_classifier_score_bound
from repro.hw.timing import TimingAnalyzer
from repro.hw.verilog import sequential_svm_to_verilog
from repro.ml.fixed_point import required_bits_for_integer
from repro.ml.metrics import accuracy_percent
from repro.ml.quantization import QuantizedLinearModel


class SequentialSVMDesign:
    """Bespoke sequential SVM circuit generated from a quantized OvR model.

    Parameters
    ----------
    model:
        The quantized linear model whose coefficients get hardwired.  The
        paper's architecture pairs naturally with OvR (``n`` classifiers =
        ``n`` cycles); OvO models are accepted for ablation studies (the
        voter then only identifies the highest-scoring *classifier*, so
        predictions use the model's pairwise vote instead of the hardware id).
    storage_style:
        ``"mux"`` (the proposed bespoke MUX storage, default) or
        ``"crossbar"`` (the rejected ROM alternative, kept for the ablation).
    library:
        Printed cell library used for pricing; defaults to the EGFET stand-in.
    """

    def __init__(
        self,
        model: QuantizedLinearModel,
        storage_style: str = "mux",
        library: Optional[CellLibrary] = None,
        dataset: str = "",
    ) -> None:
        if storage_style not in ("mux", "crossbar"):
            raise ValueError(f"unknown storage style {storage_style!r}")
        self.model = model
        self.storage_style = storage_style
        self.library = library or EGFET_PDK
        self.dataset = dataset

        # -- derived widths ------------------------------------------------- #
        score_bound = estimate_classifier_score_bound(
            model.weight_codes, model.bias_codes, model.input_format.max_code
        )
        self.score_bits = max(required_bits_for_integer(score_bound, signed=True), 2)

        # -- architectural components --------------------------------------- #
        self.controller = SequentialController(model.n_classifiers)
        self.engine = FoldedComputeEngine(
            n_features=model.n_features,
            input_bits=model.input_format.total_bits,
            weight_bits=model.weight_format.total_bits,
            score_bits=self.score_bits,
        )
        bits_per_value = storage_bits_for_model(
            model.weight_format.total_bits, model.n_features, self.score_bits
        )
        table = model.stored_coefficients()
        if storage_style == "mux":
            self.storage = MuxStorage(table, bits_per_value)
        else:
            self.storage = CrossbarRomStorage(table, bits_per_value)
        self.voter = SequentialArgmaxVoter(
            score_bits=self.score_bits, index_bits=self.controller.counter_bits
        )
        self.simulator = SequentialDatapathSimulator(
            model.weight_codes, model.bias_codes
        )
        # Structural caches: the circuit is immutable once constructed, so the
        # component blocks, the composed design and the explicit gate-level
        # top are built at most once.
        self._component_blocks: Optional[dict] = None
        self._hardware_block: Optional[HardwareBlock] = None
        self._gate_netlist: Optional[tuple] = None

    # ------------------------------------------------------------------ #
    # Structure
    # ------------------------------------------------------------------ #
    @property
    def n_classifiers(self) -> int:
        return self.model.n_classifiers

    @property
    def n_features(self) -> int:
        return self.model.n_features

    @property
    def cycles_per_classification(self) -> int:
        """One cycle per stored support vector."""
        return self.controller.cycles_per_classification

    def component_hardware(self) -> dict:
        """The four component blocks, built once and cached.

        Keys match the Table I area-breakdown labels.  The blocks are shared
        with :meth:`hardware` (composition never mutates its children), so a
        full evaluation builds each component exactly once.
        """
        if self._component_blocks is None:
            self._component_blocks = {
                "storage": self.storage.hardware(),
                "compute_engine": self.engine.hardware(),
                "voter": self.voter.hardware(),
                "control": self.controller.hardware(),
            }
        return self._component_blocks

    def hardware(self) -> HardwareBlock:
        """The complete circuit as one priced hardware block (cached).

        The four components operate concurrently within a cycle; the cycle's
        critical path runs storage-select -> compute engine -> voter
        comparator, which the composition below reflects (control sits in
        parallel, it only feeds the select lines).
        """
        from repro.hw.netlist import series

        if self._hardware_block is None:
            components = self.component_hardware()
            datapath = series(
                "datapath",
                [components["storage"], components["compute_engine"], components["voter"]],
            )
            self._hardware_block = parallel(
                f"sequential_svm[{self.dataset or 'design'}]",
                [datapath, components["control"]],
            )
        return self._hardware_block

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    def evaluate(
        self,
        X_test: np.ndarray,
        y_test: np.ndarray,
        model_name: str = "Ours (seq. SVM)",
    ) -> ClassifierHardwareReport:
        """Full Table-I-style evaluation: accuracy plus hardware metrics."""
        block = self.hardware()
        timing = TimingAnalyzer(self.library).analyze(block, sequential=True)
        power = PowerAnalyzer(self.library).analyze(
            block,
            frequency_hz=timing.frequency_hz,
            cycles_per_classification=self.cycles_per_classification,
        )
        area = AreaAnalyzer(self.library).analyze(block)
        accuracy = accuracy_percent(y_test, self.predict(X_test))
        # Reuse the cached component blocks from the single hardware() build
        # instead of regenerating every component for the area breakdown.
        breakdown = {
            name: component.area_cm2(self.library)
            for name, component in self.component_hardware().items()
        }
        return ClassifierHardwareReport(
            dataset=self.dataset,
            model=model_name,
            accuracy_percent=accuracy,
            area_cm2=area.total_cm2,
            power_mw=power.total_mw,
            frequency_hz=timing.frequency_hz,
            latency_ms=power.latency_ms,
            energy_mj=power.energy_per_classification_mj,
            static_power_mw=power.static_mw,
            dynamic_power_mw=power.dynamic_mw,
            n_cells=block.n_cells(),
            cycles_per_classification=self.cycles_per_classification,
            area_breakdown_cm2=breakdown,
            notes=f"storage={self.storage_style}, OvR={self.model.strategy == 'ovr'}",
        )

    def gate_netlist(self):
        """The complete clocked circuit as an explicit gate-level netlist.

        Built once and cached: counter + MUX storage + shared MAC + voter
        composed from the :mod:`repro.hw.rtl` generators with this model's
        coefficients hardwired
        (:func:`~repro.hw.rtl.svm_top.build_sequential_svm_netlist`).
        Returns ``(netlist, ports)``; simulate it with
        :func:`repro.perf.seqsim.simulate_sequential_batch` (the behavioural
        :class:`~repro.hw.simulate.SequentialDatapathSimulator` is the
        oracle it is asserted bit-exact against, see
        :meth:`verify_gate_level`).
        """
        from repro.hw.rtl.svm_top import build_sequential_svm_netlist

        if self._gate_netlist is None:
            self._gate_netlist = build_sequential_svm_netlist(
                self.model.weight_codes,
                self.model.bias_codes,
                input_bits=self.model.input_format.total_bits,
                name=f"sequential_svm_{self.dataset or 'design'}".replace("-", "_"),
            )
        return self._gate_netlist

    # ------------------------------------------------------------------ #
    # Functional behaviour
    # ------------------------------------------------------------------ #
    def predict(self, X: np.ndarray) -> np.ndarray:
        """Class labels predicted by the integer-exact model (matches hardware)."""
        return self.model.predict(X)

    def simulate_sample(self, x: np.ndarray) -> SimulationResult:
        """Cycle-accurate simulation of one (real-valued) input sample."""
        codes = self.model.quantize_inputs(np.asarray(x).reshape(1, -1))[0]
        return self.simulator.run(codes)

    def simulate_batch(self, X: np.ndarray) -> np.ndarray:
        """Hardware-predicted class ids for a batch of real-valued inputs."""
        codes = self.model.quantize_inputs(np.asarray(X))
        return self.simulator.run_batch(codes)

    def verify_against_model(self, X: np.ndarray) -> bool:
        """Check that the cycle-accurate simulation matches the integer model.

        Only meaningful for OvR models (the hardware voter implements the OvR
        argmax).  Returns True when every prediction matches bit-exactly.
        """
        if self.model.strategy != "ovr":
            raise ValueError("hardware/model equivalence is defined for OvR models")
        hw_ids = self.simulate_batch(X)
        sw_ids = self.model.predict_ids(X)
        return bool(np.array_equal(hw_ids, sw_ids))

    def simulate_gate_level(
        self, X: np.ndarray, opt_level: int = 0, engine: str = "auto"
    ) -> np.ndarray:
        """Class ids predicted by clocking the explicit gate-level netlist.

        Every sample's quantized codes are held on the input pins for
        ``n_classifiers`` cycles through the bit-parallel sequential engine;
        the prediction is the best-class register's load value during the
        final cycle.  ``opt_level > 0`` simulates the optimized
        combinational regions instead of the raw ones; ``engine`` selects
        the execution backend for the per-cycle cone
        (see :mod:`repro.perf.engines`).
        """
        from repro.perf.bitsim import words_to_ints
        from repro.perf.seqsim import simulate_sequential_batch

        netlist, ports = self.gate_netlist()
        codes = self.model.quantize_inputs(np.asarray(X))
        trace = simulate_sequential_batch(
            netlist,
            ports.input_matrix(codes),
            cycles=ports.n_classifiers,
            library=self.library,
            opt_level=opt_level,
            engine=engine,
        )
        return words_to_ints(trace[-1], ports.pred_lanes())

    def verify_gate_level(
        self, X: np.ndarray, opt_level: int = 0, engine: str = "auto"
    ) -> bool:
        """Assert the gate-level netlist bit-exact against the cycle oracle.

        Checks every cycle of every sample: score, best score, best class
        and comparator-fired must match the per-cycle planes of the
        behavioural oracle's
        :meth:`~repro.hw.simulate.SequentialDatapathSimulator.trace_batch`,
        the batched form of its scalar ``run()`` traces (see
        :func:`~repro.hw.rtl.svm_top.verify_sequential_svm_netlist`).  An
        empty batch verifies trivially.
        """
        from repro.hw.rtl.svm_top import verify_sequential_svm_netlist

        netlist, ports = self.gate_netlist()
        codes = self.model.quantize_inputs(np.asarray(X))
        return verify_sequential_svm_netlist(
            netlist,
            ports,
            codes,
            oracle=self.simulator,
            library=self.library,
            opt_level=opt_level,
            engine=engine,
        )

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #
    def to_verilog(self, module_name: Optional[str] = None) -> str:
        """Behavioural Verilog of this design with hardwired coefficients."""
        name = module_name or f"sequential_svm_{self.dataset or 'design'}"
        name = name.replace("-", "_").replace(" ", "_").replace(".", "_")
        return sequential_svm_to_verilog(
            self.model.weight_codes,
            self.model.bias_codes,
            input_bits=self.model.input_format.total_bits,
            weight_bits=self.model.weight_format.total_bits,
            score_bits=self.score_bits,
            module_name=name,
        )

    def summary(self) -> str:
        """Readable architecture summary (used by the quickstart example)."""
        block = self.hardware()
        lines = [
            f"Sequential SVM design ({self.dataset or 'unnamed dataset'})",
            f"  classifiers (support vectors) : {self.n_classifiers}",
            f"  features / multipliers        : {self.n_features}",
            f"  input precision               : {self.model.input_format.describe()}",
            f"  weight precision              : {self.model.weight_format.describe()}",
            f"  score width                   : {self.score_bits} bits",
            f"  storage                       : {self.storage_style}, "
            f"{self.storage.total_bits} hardwired bits",
            f"  cycles per classification     : {self.cycles_per_classification}",
            f"  total cells                   : {block.n_cells()}",
        ]
        return "\n".join(lines)
