"""pitkit: passive inductive telemetry toolkit.

Models the full readout chain of a battery-free resonant ring sensor
paired with a wristband reader coil: coupled-coil impedance, balanced
bridge readout, synthetic analyzer sweeps, baseline-residual peak
detection, and thumb-to-index input decoding.
"""

from .bridge import BridgeConfig, bridge_output, to_db_magnitude
from .circuit import (
    CoilParams,
    CoupledPair,
    capacitance_for_resonance,
    load_impedance,
    reflected_impedance,
    resonant_frequency,
    sensor_impedance,
)
from .dca import DcaDesign, DesignError, design_dca, segment_length_check
from .decode import (
    DebounceConfig,
    InputEvent,
    PROFILE_PRESETS,
    RingProfile,
    classify_block,
    decode_scroll,
    decode_stream,
    foreign_block,
)
from .detect import (
    Detection,
    DetectorConfig,
    compute_snr,
    detect_block,
    detect_stream,
)
from .synth import (
    DisturbanceModel,
    GeometryScenario,
    SweepConfig,
    coupling_from_geometry,
    scripted_session,
    synthesize_block,
    synthesize_sweep,
)
from .trace import SweepBlock

__version__ = "0.1.0"
