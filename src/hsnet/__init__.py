"""hsnet: a CPU micro-framework for hierarchical-split residual networks."""

from .errors import (
    CapacityError,
    ConfigError,
    CorruptionError,
    DegenerateStatsError,
    FormatError,
    GeometryError,
    GraphError,
    HsnetError,
    IncompatibilityError,
    NumericsError,
    ShapeError,
)
from .hsblock import (
    ChannelPlan,
    HsBlockConfig,
    HsStage,
    channel_plan,
    concat_channels,
    hs_forward,
    split_channels,
)
from .layers import (
    BatchNormState,
    Conv2dParams,
    LossOutput,
    avg_pool,
    batch_norm,
    conv2d,
    global_avg_pool,
    linear,
    max_pool,
    relu,
    softmax_cross_entropy,
)
from .network import Bottleneck, Network, NetworkConfig, NETWORK_PRESETS, build, preset
from .tensor import Rng, Tape, Tensor4, add, backward, from_array, mul, randn, scale, sub, tensor_sum, zeros

__version__ = "0.1.0"
