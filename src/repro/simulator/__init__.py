"""Packet-level discrete-event network simulator."""

from .app import (
    MultiFlowTrainingApp,
    RequestApp,
    SenderLike,
    TrainingApp,
)
from .engine import EventEntry, Simulator
from .link import Link
from .node import Host, Node, Switch
from .packet import ACK_SIZE_BYTES, DATA_HEADER_BYTES, Packet
from .queues import DropTailQueue, EcnQueue, PriorityQueue, QueueDiscipline
from .topology import Network, build_dumbbell, build_fat_tree

__all__ = [
    "Simulator",
    "EventEntry",
    "Packet",
    "DATA_HEADER_BYTES",
    "ACK_SIZE_BYTES",
    "Link",
    "QueueDiscipline",
    "DropTailQueue",
    "EcnQueue",
    "PriorityQueue",
    "Node",
    "Host",
    "Switch",
    "Network",
    "build_dumbbell",
    "build_fat_tree",
    "TrainingApp",
    "MultiFlowTrainingApp",
    "RequestApp",
    "SenderLike",
]
