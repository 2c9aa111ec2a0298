"""Cluster hardware specifications and the calibrated cost model.

Constants follow the paper's experimental setup (§VII-A): servers with
4 GPUs (A100-80GB / V100S-32GB), NVLink intra-node, 25 Gbps Mellanox
ConnectX-5 across nodes, PCIe Gen4 (A100) / Gen3 (V100S), 512 GB host
memory and a 4 TB Samsung SSD.  Where the paper gives no number (e.g.
sustained SSD write bandwidth, top-k throughput) we use public figures
for the named hardware and record them in EXPERIMENTS.md as calibration
constants — the experiments report *relative* overheads, which depend on
the ratios of these rates, not their absolute values.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.units import GB
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class ClusterSpec:
    """Static hardware description of one training cluster."""

    name: str
    num_nodes: int
    gpus_per_node: int
    #: Cross-node network bandwidth per node, bytes/s (25 Gbps = 3.125 GB/s).
    network_bandwidth: float
    #: Per-message network latency, seconds.
    network_latency: float
    #: Host<->device bandwidth per GPU, bytes/s.
    pcie_bandwidth: float
    #: Intra-node GPU<->GPU bandwidth, bytes/s.
    nvlink_bandwidth: float
    #: Sustained local-SSD write / read bandwidth, bytes/s.
    ssd_write_bandwidth: float
    ssd_read_bandwidth: float
    #: Host memory per node, bytes (bounds Gemini/LowDiff+ CPU tiers).
    host_memory: float
    #: CPU throughput applying optimizer updates, elements/s (LowDiff+).
    cpu_update_throughput: float

    def __post_init__(self):
        for field_name in (
            "num_nodes", "gpus_per_node", "network_bandwidth", "pcie_bandwidth",
            "nvlink_bandwidth", "ssd_write_bandwidth", "ssd_read_bandwidth",
            "host_memory", "cpu_update_throughput",
        ):
            check_positive(field_name, getattr(self, field_name))
        check_positive("network_latency", self.network_latency, strict=False)

    @property
    def num_gpus(self) -> int:
        return self.num_nodes * self.gpus_per_node


#: The paper's A100 testbed: 2 nodes x 4 A100, PCIe Gen4, 25 Gbps IB.
A100_CLUSTER = ClusterSpec(
    name="a100",
    num_nodes=2,
    gpus_per_node=4,
    network_bandwidth=3.125 * GB,      # 25 Gbps
    network_latency=5e-6,
    pcie_bandwidth=24.0 * GB,          # PCIe Gen4 x16 practical
    nvlink_bandwidth=250.0 * GB,
    ssd_write_bandwidth=3.0 * GB,      # Samsung PCIe4 SSD sustained write
    ssd_read_bandwidth=3.5 * GB,
    host_memory=512 * GB,
    cpu_update_throughput=6.0e9,       # Adam elements/s across host cores
)

#: The scalability testbed: V100S servers, PCIe Gen3, slower CPU/SSD.
V100_CLUSTER = ClusterSpec(
    name="v100",
    num_nodes=2,
    gpus_per_node=4,
    network_bandwidth=3.125 * GB,
    network_latency=5e-6,
    pcie_bandwidth=12.0 * GB,          # PCIe Gen3 x16 practical
    nvlink_bandwidth=130.0 * GB,
    ssd_write_bandwidth=2.0 * GB,
    ssd_read_bandwidth=2.5 * GB,
    host_memory=512 * GB,
    cpu_update_throughput=3.0e9,
)


def scaled_cluster(base: ClusterSpec, num_gpus: int) -> ClusterSpec:
    """A variant of ``base`` with ``num_gpus`` total GPUs (Exp. 10)."""
    if num_gpus % base.gpus_per_node:
        raise ValueError(
            f"num_gpus {num_gpus} not a multiple of {base.gpus_per_node} per node"
        )
    return ClusterSpec(
        name=f"{base.name}-{num_gpus}g",
        num_nodes=num_gpus // base.gpus_per_node,
        gpus_per_node=base.gpus_per_node,
        network_bandwidth=base.network_bandwidth,
        network_latency=base.network_latency,
        pcie_bandwidth=base.pcie_bandwidth,
        nvlink_bandwidth=base.nvlink_bandwidth,
        ssd_write_bandwidth=base.ssd_write_bandwidth,
        ssd_read_bandwidth=base.ssd_read_bandwidth,
        host_memory=base.host_memory,
        cpu_update_throughput=base.cpu_update_throughput,
    )


@dataclass(frozen=True)
class CostModel:
    """Calibrated software-cost constants (documented in EXPERIMENTS.md).

    Attributes
    ----------
    compress_seconds_per_element:
        GPU time of top-k-style compression per input element.  Calibrated
        so Naïve DC's per-iteration differential compression of a 3-Psi
        state slows GPT2-L by ~55% (paper Fig. 1(a)).
    serialize_seconds_per_byte:
        CPU serialization overhead on persist (torch.save-style packing).
    backward_fraction:
        Fraction of an iteration spent in backward — the window layer-wise
        snapshotting overlaps with (LowDiff+).
    pcie_interference:
        Fraction of a PCIe transfer's duration that surfaces as training
        slowdown even when overlapped (DMA contention with data loading);
        drives LowDiff+'s residual 8-10% overhead.
    network_idle_fraction:
        Fraction of an iteration during which the network is idle and
        Gemini's traffic scheduling can place checkpoint traffic for free.
    queue_overhead_seconds:
        Per-enqueue cost of the zero-copy reusing queue (IPC handle).
    queue_copy_bandwidth:
        Bytes/s of a *copying* queue (the no-zero-copy ablation).
    """

    compress_seconds_per_element: float = 8.0e-11
    serialize_seconds_per_byte: float = 8.0e-11
    backward_fraction: float = 0.65
    pcie_interference: float = 0.20
    network_idle_fraction: float = 0.40
    queue_overhead_seconds: float = 2.0e-4
    queue_copy_bandwidth: float = 8.0e9
    #: Effective fraction of NIC line rate a remote filesystem sustains
    #: (protocol overhead + server-side replication write amplification).
    remote_storage_efficiency: float = 0.6

    def compress_time(self, num_elements: float) -> float:
        return num_elements * self.compress_seconds_per_element

    def serialize_time(self, nbytes: float) -> float:
        return nbytes * self.serialize_seconds_per_byte


DEFAULT_COST_MODEL = CostModel()
