"""Golden pins for the whole energy ledger, not just its total.

``tests/test_energy_parity.py`` pins ``total_j`` and ``duration_s``;
a reordered busy-time sum or a mis-tagged routine would still pass it.
This file pins, as exact ``float.hex()`` values, every
``by_component_routine`` entry in insertion order, every
``busy_times`` entry in insertion order, and the three run counters
(interrupts, CPU wakes, bus bytes) for the same twelve scenario/scheme
pairs, plus four partial-batch runs.  The simulator is deterministic, so
any change to recording or integration must reproduce these bit for
bit.

``EVENT_GOLDEN`` pins the kernel's side of the same sixteen runs: the
events the simulator executed and each component's ledger change
count.  A faster event loop must neither add nor drop an event.  A bus
transfer is recorded as one interval, two ledger changes and no event,
so each run's bus change count is twice its transfer count plus the
initial entry.

The analytic tier reproduces the twelve ``GOLDEN`` ledgers and the
DES's result times bit for bit at one window, so the same table pins
it too.  ``ANALYTIC_LONG_GOLDEN`` pins it at 30 windows, over both
extrapolated and full-scan points, result times and QoS violations
included.
"""

import pytest

from repro.core import Scenario, analytic_scenario_result, run_apps, run_scenario
from repro.obs import TraceRecorder
from .test_energy_parity import APPS

#: (scenario label, scheme) -> {"energy": [(component, routine, joules
#: hex)], "busy": [(routine, seconds hex)], "counters": (interrupts,
#: cpu wakes, bus bytes)}.
GOLDEN = {
    ('A11+A6', 'baseline'): {
        "energy": [
            ('board', 'idle', '0x1.beeeef5a7d3c1p-2'),
            ('cpu', 'data_transfer', '0x1.a2b7f38c53ff0p+1'),
            ('cpu', 'interrupt', '0x1.a666666666e00p+0'),
            ('cpu', 'app_compute', '0x1.a5f0a74cbda17p+3'),
            ('mcu', 'data_collection', '0x1.ae1ef73c0bd77p-5'),
            ('mcu', 'interrupt', '0x1.5810624dd64eep-8'),
            ('mcu', 'data_transfer', '0x1.9ad58ec5c825ap-3'),
            ('mcu_board', 'idle', '0x1.29f49f91a8d2cp-4'),
            ('nic', 'idle', '0x0.0p+0'),
            ('nic', 'app_compute', '0x1.0b2d5aac1ecccp-12'),
            ('pio_bus', 'idle', '0x0.0p+0'),
            ('pio_bus', 'data_transfer', '0x1.f5c28f5c290a2p-4'),
            ('sensor:S8', 'data_collection', '0x1.a9fbe76c8b243p-3'),
            ('sensor:S8', 'idle', '0x1.c283b5fdf1dd0p-5'),
            ('sensor:S9', 'data_collection', '0x1.d70a3d70a3b88p-3'),
            ('sensor:S9', 'idle', '0x1.a65b7a9e12beap-2'),
        ],
        "busy": [
            ('data_collection', '0x1.1999999999783p-1'),
            ('interrupt', '0x1.6147ae147b6f2p-2'),
            ('data_transfer', '0x1.7333333333216p-1'),
            ('app_compute', '0x1.5190672b4168fp+1'),
            ('idle', '0x0.0p+0'),
        ],
        "counters": (3000, 0, 18000),
    },
    ('A11+A6', 'batching'): {
        "energy": [
            ('board', 'idle', '0x1.dcdb5549c55dfp-2'),
            ('cpu', 'data_transfer', '0x1.5b10385c67dfep+1'),
            ('cpu', 'interrupt', '0x1.4e3bcd35a8380p-8'),
            ('cpu', 'app_compute', '0x1.a5f0a74cbda17p+3'),
            ('mcu', 'data_collection', '0x1.84f765fd8ad75p-4'),
            ('mcu', 'interrupt', '0x1.d5c31593f3333p-19'),
            ('mcu', 'data_transfer', '0x1.34e1630f6121ap-3'),
            ('mcu_board', 'idle', '0x1.3de78e312e3eap-4'),
            ('nic', 'idle', '0x0.0p+0'),
            ('nic', 'app_compute', '0x1.0b2d5aac1ecccp-12'),
            ('pio_bus', 'idle', '0x0.0p+0'),
            ('pio_bus', 'data_transfer', '0x1.0029f16b11c70p-4'),
            ('sensor:S8', 'data_collection', '0x1.a9fbe76c8b243p-3'),
            ('sensor:S8', 'idle', '0x1.e26ecd6394235p-5'),
            ('sensor:S9', 'data_collection', '0x1.d70a3d70a3b88p-3'),
            ('sensor:S9', 'idle', '0x1.c447e08d5ae08p-2'),
        ],
        "busy": [
            ('data_collection', '0x1.1999999999785p-1'),
            ('interrupt', '0x1.e2584f4c6e000p-13'),
            ('data_transfer', '0x1.4f7121ab4b72cp-2'),
            ('app_compute', '0x1.5190672b4168fp+1'),
            ('idle', '0x0.0p+0'),
        ],
        "counters": (2, 1, 18000),
    },
    ('A11+A6', 'bcom'): {
        "energy": [
            ('board', 'idle', '0x1.df9d014ef1a4ap-2'),
            ('cpu', 'data_transfer', '0x1.1a0bf22fde40ap+1'),
            ('cpu', 'interrupt', '0x1.4e3bcd35a8380p-8'),
            ('cpu', 'app_compute', '0x1.a4480b3a44ecep+3'),
            ('mcu', 'data_collection', '0x1.84fa05143bf38p-4'),
            ('mcu', 'app_compute', '0x1.1302d46c1c050p-4'),
            ('mcu', 'interrupt', '0x1.d5c31593f3333p-19'),
            ('mcu', 'data_transfer', '0x1.1a54c904f1e0dp-3'),
            ('mcu_board', 'idle', '0x1.3fbe00df4bc31p-4'),
            ('nic', 'idle', '0x0.0p+0'),
            ('nic', 'app_compute', '0x1.0b2d5aac1ecccp-12'),
            ('pio_bus', 'idle', '0x0.0p+0'),
            ('pio_bus', 'data_transfer', '0x1.781f3d23be940p-6'),
            ('sensor:S8', 'data_collection', '0x1.a9fbe76c8b243p-3'),
            ('sensor:S8', 'idle', '0x1.e55f84e0902a6p-5'),
            ('sensor:S9', 'data_collection', '0x1.d70a3d70a3b88p-3'),
            ('sensor:S9', 'idle', '0x1.c7098c9287273p-2'),
        ],
        "busy": [
            ('data_collection', '0x1.1999999999783p-1'),
            ('interrupt', '0x1.e2584f4c6e000p-13'),
            ('data_transfer', '0x1.d1324585d47a0p-4'),
            ('app_compute', '0x1.68d38792b744dp+1'),
            ('idle', '0x0.0p+0'),
        ],
        "counters": (2, 1, 6600),
    },
    ('A2', 'baseline'): {
        "energy": [
            ('board', 'idle', '0x1.ec8b2e1bf223fp-4'),
            ('cpu', 'data_transfer', '0x1.06697c53c6d84p+2'),
            ('cpu', 'interrupt', '0x1.1999999999e4fp-1'),
            ('cpu', 'app_compute', '0x1.6c7219220fec0p-7'),
            ('mcu', 'data_collection', '0x1.1f212d773170dp-6'),
            ('mcu', 'interrupt', '0x1.cac08312732c5p-10'),
            ('mcu', 'data_transfer', '0x1.cd72c12f5127ep-5'),
            ('mcu_board', 'idle', '0x1.485cc967f6c2ap-6'),
            ('nic', 'idle', '0x0.0p+0'),
            ('nic', 'app_compute', '0x1.77cf447653333p-17'),
            ('pio_bus', 'idle', '0x0.0p+0'),
            ('pio_bus', 'data_transfer', '0x1.f92c5f92c55aep-5'),
            ('sensor:S4', 'data_collection', '0x1.005532617c090p-1'),
            ('sensor:S4', 'idle', '0x1.4bad609f74d7fp-12'),
        ],
        "busy": [
            ('data_collection', '0x1.1999999999876p-1'),
            ('interrupt', '0x1.d70a3d70a4856p-4'),
            ('data_transfer', '0x1.222222222209cp-2'),
            ('app_compute', '0x1.23c42a66dbd00p-9'),
            ('idle', '0x0.0p+0'),
        ],
        "counters": (1000, 0, 12000),
    },
    ('A2', 'batching'): {
        "energy": [
            ('board', 'idle', '0x1.0f9bc4413803bp-3'),
            ('cpu', 'data_transfer', '0x1.00fe788818af7p+1'),
            ('cpu', 'interrupt', '0x1.2a30553261980p-8'),
            ('cpu', 'app_compute', '0x1.6c72192210000p-7'),
            ('mcu', 'data_collection', '0x1.0a25d8d79cfd0p-4'),
            ('mcu', 'interrupt', '0x1.d5c31593f3333p-20'),
            ('mcu', 'data_transfer', '0x1.ed8f735e54da6p-8'),
            ('mcu_board', 'idle', '0x1.6a2505ac4aafap-6'),
            ('nic', 'idle', '0x0.0p+0'),
            ('nic', 'app_compute', '0x1.77cf447653333p-17'),
            ('pio_bus', 'idle', '0x0.0p+0'),
            ('pio_bus', 'data_transfer', '0x1.557f46c0671c0p-5'),
            ('sensor:S4', 'data_collection', '0x1.005532617c090p-1'),
            ('sensor:S4', 'idle', '0x1.8fc83854369d1p-12'),
        ],
        "busy": [
            ('data_collection', '0x1.1999999999876p-1'),
            ('interrupt', '0x1.e2584f4c70000p-14'),
            ('data_transfer', '0x1.34fd14040a988p-3'),
            ('app_compute', '0x1.23c42a66dbe00p-9'),
            ('idle', '0x0.0p+0'),
        ],
        "counters": (1, 1, 12000),
    },
    ('A2', 'bcom'): {
        "energy": [
            ('board', 'idle', '0x1.fb0d558c5cd37p-4'),
            ('cpu', 'idle', '0x1.6e00b384266acp-2'),
            ('cpu', 'interrupt', '0x1.a29c779a6b560p-6'),
            ('cpu', 'data_transfer', '0x1.691e303cf6400p-10'),
            ('mcu', 'data_collection', '0x1.0a25d8d79cfd0p-4'),
            ('mcu', 'app_compute', '0x1.f0c8549807c7fp-8'),
            ('mcu', 'interrupt', '0x1.d5c31593f3333p-20'),
            ('mcu', 'data_transfer', '0x1.1502aea7778cdp-11'),
            ('mcu_board', 'idle', '0x1.5208e3b2e88cfp-6'),
            ('nic', 'idle', '0x0.0p+0'),
            ('nic', 'app_compute', '0x1.77cf447653333p-17'),
            ('pio_bus', 'idle', '0x0.0p+0'),
            ('pio_bus', 'data_transfer', '0x1.12f5bde650000p-13'),
            ('sensor:S4', 'data_collection', '0x1.005532617c090p-1'),
            ('sensor:S4', 'idle', '0x1.5f2d3353376dcp-12'),
        ],
        "busy": [
            ('data_collection', '0x1.1999999999876p-1'),
            ('interrupt', '0x1.e2584f4c70000p-14'),
            ('data_transfer', '0x1.babb6a2d6b000p-12'),
            ('app_compute', '0x1.631b584b1ab00p-6'),
            ('idle', '0x0.0p+0'),
        ],
        "counters": (1, 1, 32),
    },
    ('A2', 'beam'): {
        "energy": [
            ('board', 'idle', '0x1.ec8b2e1bf223fp-4'),
            ('cpu', 'data_transfer', '0x1.06697c53c6d84p+2'),
            ('cpu', 'interrupt', '0x1.1999999999e4fp-1'),
            ('cpu', 'app_compute', '0x1.6c7219220fec0p-7'),
            ('mcu', 'data_collection', '0x1.1f212d773170dp-6'),
            ('mcu', 'interrupt', '0x1.cac08312732c5p-10'),
            ('mcu', 'data_transfer', '0x1.cd72c12f5127ep-5'),
            ('mcu_board', 'idle', '0x1.485cc967f6c2ap-6'),
            ('nic', 'idle', '0x0.0p+0'),
            ('nic', 'app_compute', '0x1.77cf447653333p-17'),
            ('pio_bus', 'idle', '0x0.0p+0'),
            ('pio_bus', 'data_transfer', '0x1.f92c5f92c55aep-5'),
            ('sensor:S4', 'data_collection', '0x1.005532617c090p-1'),
            ('sensor:S4', 'idle', '0x1.4bad609f74d7fp-12'),
        ],
        "busy": [
            ('data_collection', '0x1.1999999999876p-1'),
            ('interrupt', '0x1.d70a3d70a4856p-4'),
            ('data_transfer', '0x1.222222222209cp-2'),
            ('app_compute', '0x1.23c42a66dbd00p-9'),
            ('idle', '0x0.0p+0'),
        ],
        "counters": (1000, 0, 12000),
    },
    ('A2', 'com'): {
        "energy": [
            ('board', 'idle', '0x1.fb0d558c5cd37p-4'),
            ('cpu', 'idle', '0x1.6e00b384266acp-2'),
            ('cpu', 'interrupt', '0x1.a29c779a6b560p-6'),
            ('cpu', 'data_transfer', '0x1.691e303cf6400p-10'),
            ('mcu', 'data_collection', '0x1.0a25d8d79cfd0p-4'),
            ('mcu', 'app_compute', '0x1.f0c8549807c7fp-8'),
            ('mcu', 'interrupt', '0x1.d5c31593f3333p-20'),
            ('mcu', 'data_transfer', '0x1.1502aea7778cdp-11'),
            ('mcu_board', 'idle', '0x1.5208e3b2e88cfp-6'),
            ('nic', 'idle', '0x0.0p+0'),
            ('nic', 'app_compute', '0x1.77cf447653333p-17'),
            ('pio_bus', 'idle', '0x0.0p+0'),
            ('pio_bus', 'data_transfer', '0x1.12f5bde650000p-13'),
            ('sensor:S4', 'data_collection', '0x1.005532617c090p-1'),
            ('sensor:S4', 'idle', '0x1.5f2d3353376dcp-12'),
        ],
        "busy": [
            ('data_collection', '0x1.1999999999876p-1'),
            ('interrupt', '0x1.e2584f4c70000p-14'),
            ('data_transfer', '0x1.babb6a2d6b000p-12'),
            ('app_compute', '0x1.631b584b1ab00p-6'),
            ('idle', '0x0.0p+0'),
        ],
        "counters": (1, 1, 32),
    },
    ('A2', 'polling'): {
        "energy": [
            ('board', 'idle', '0x1.ec60d15115f23p-4'),
            ('cpu', 'data_collection', '0x1.3fffffffffe44p+1'),
            ('cpu', 'data_transfer', '0x1.2100e6afccf5fp+1'),
            ('cpu', 'app_compute', '0x1.6c72192210000p-7'),
            ('mcu', 'idle', '0x1.48408b8b63f6dp-7'),
            ('mcu_board', 'idle', '0x1.48408b8b63f6dp-6'),
            ('nic', 'idle', '0x0.0p+0'),
            ('nic', 'app_compute', '0x1.77cf447653333p-17'),
            ('pio_bus', 'idle', '0x0.0p+0'),
            ('sensor:S4', 'data_collection', '0x1.005532617c090p-1'),
            ('sensor:S4', 'idle', '0x1.4b747138cbe0dp-12'),
        ],
        "busy": [
            ('data_collection', '0x1.ffffffffffd1ap-1'),
            ('interrupt', '0x0.0p+0'),
            ('data_transfer', '0x1.47ae147ae24aap-6'),
            ('app_compute', '0x1.23c42a66dbe00p-9'),
            ('idle', '0x0.0p+0'),
        ],
        "counters": (0, 0, 0),
    },
    ('A2+A7', 'baseline'): {
        "energy": [
            ('board', 'idle', '0x1.03751c8c70ca6p-3'),
            ('cpu', 'data_transfer', '0x1.d9e78f7f1cd22p+1'),
            ('cpu', 'interrupt', '0x1.1999999999e66p+0'),
            ('cpu', 'app_compute', '0x1.1c8323e3f9662p-2'),
            ('mcu', 'data_collection', '0x1.1eecbfb15b2b5p-5'),
            ('mcu', 'interrupt', '0x1.cac0831273119p-9'),
            ('mcu', 'data_transfer', '0x1.0b4fe96ffb2cap-4'),
            ('mcu_board', 'idle', '0x1.59f17b65ebb88p-6'),
            ('nic', 'idle', '0x0.0p+0'),
            ('nic', 'app_compute', '0x1.19db7358be666p-14'),
            ('pio_bus', 'idle', '0x0.0p+0'),
            ('pio_bus', 'data_transfer', '0x1.f92c5f92c55abp-4'),
            ('sensor:S4', 'data_collection', '0x1.005532617c17cp+0'),
            ('sensor:S4', 'idle', '0x1.268ce2437a865p-15'),
        ],
        "busy": [
            ('data_collection', '0x1.1999999999844p+0'),
            ('interrupt', '0x1.d70a3d70a4859p-3'),
            ('data_transfer', '0x1.2222222221fc0p-1'),
            ('app_compute', '0x1.c76a8e53a45f0p-5'),
            ('idle', '0x0.0p+0'),
        ],
        "counters": (2000, 0, 24000),
    },
    ('A2+A7', 'bcom'): {
        "energy": [
            ('board', 'idle', '0x1.4c1f1bea66ac7p-3'),
            ('cpu', 'idle', '0x1.dcb757419b9e7p-2'),
            ('cpu', 'interrupt', '0x1.a29c779a6b560p-5'),
            ('cpu', 'data_transfer', '0x1.5911a2781dd00p-8'),
            ('mcu', 'data_collection', '0x1.47991bc5585b5p-4'),
            ('mcu', 'app_compute', '0x1.e96691fdaf2f3p-4'),
            ('mcu', 'interrupt', '0x1.d5c31593f3333p-19'),
            ('mcu', 'data_transfer', '0x1.1a83f7e83339ap-11'),
            ('mcu_board', 'idle', '0x1.bad4253888e5fp-6'),
            ('nic', 'idle', '0x0.0p+0'),
            ('nic', 'app_compute', '0x1.19db7358be666p-14'),
            ('pio_bus', 'idle', '0x0.0p+0'),
            ('pio_bus', 'data_transfer', '0x1.727f31c7b1800p-11'),
            ('sensor:S4', 'data_collection', '0x1.005532617c17cp+0'),
            ('sensor:S4', 'idle', '0x1.d0478f466acd9p-13'),
        ],
        "busy": [
            ('data_collection', '0x1.1999999999844p+0'),
            ('interrupt', '0x1.e2584f4c70000p-13'),
            ('data_transfer', '0x1.c66207eb3f000p-10'),
            ('app_compute', '0x1.5dab92baee32cp-2'),
            ('idle', '0x0.0p+0'),
        ],
        "counters": (2, 2, 192),
    },
    ('A2+A7', 'beam'): {
        "energy": [
            ('board', 'idle', '0x1.036221dde962fp-3'),
            ('cpu', 'data_transfer', '0x1.06697c53c6d84p+2'),
            ('cpu', 'interrupt', '0x1.1999999999e4fp-1'),
            ('cpu', 'app_compute', '0x1.1c8323e3f9662p-2'),
            ('mcu', 'data_collection', '0x1.1f212d773170dp-6'),
            ('mcu', 'interrupt', '0x1.cac08312732c5p-10'),
            ('mcu', 'data_transfer', '0x1.e34cfddf37042p-5'),
            ('mcu_board', 'idle', '0x1.59d82d27e1d95p-6'),
            ('nic', 'idle', '0x0.0p+0'),
            ('nic', 'app_compute', '0x1.19db7358be666p-14'),
            ('pio_bus', 'idle', '0x0.0p+0'),
            ('pio_bus', 'data_transfer', '0x1.f92c5f92c55aep-5'),
            ('sensor:S4', 'data_collection', '0x1.005532617c090p-1'),
            ('sensor:S4', 'idle', '0x1.6eebc35177bdep-12'),
        ],
        "busy": [
            ('data_collection', '0x1.1999999999876p-1'),
            ('interrupt', '0x1.d70a3d70a4856p-4'),
            ('data_transfer', '0x1.222222222209cp-2'),
            ('app_compute', '0x1.c76a8e53a45f0p-5'),
            ('idle', '0x0.0p+0'),
        ],
        "counters": (1000, 0, 12000),
    },
}


#: Partial-batch DES runs, in the same format, keyed by (scenario label,
#: scheme, batch size): a ``batch_size`` flushes the MCU buffer before
#: each window closes, a hand-off path the table above never takes.
PARTIAL_BATCH_GOLDEN = {
    ('A2', 'batching', 50): {
        "energy": [
            ('board', 'idle', '0x1.efbe8993113f4p-4'),
            ('cpu', 'data_transfer', '0x1.d0c3adf88499dp+0'),
            ('cpu', 'interrupt', '0x1.74bc6a7ef9edbp-4'),
            ('cpu', 'app_compute', '0x1.6c72192210000p-7'),
            ('mcu', 'data_collection', '0x1.067381d7dbe66p-4'),
            ('mcu', 'interrupt', '0x1.2599ed7c72a9ap-15'),
            ('mcu', 'data_transfer', '0x1.d7d272b765f2cp-9'),
            ('mcu_board', 'idle', '0x1.4a7f06620b7f8p-6'),
            ('nic', 'idle', '0x0.0p+0'),
            ('nic', 'app_compute', '0x1.77cf447653333p-17'),
            ('pio_bus', 'idle', '0x0.0p+0'),
            ('pio_bus', 'data_transfer', '0x1.589c31b2b8dfcp-5'),
            ('sensor:S4', 'data_collection', '0x1.005532617c090p-1'),
            ('sensor:S4', 'idle', '0x1.4ffa97f7e02fep-12'),
        ],
        "busy": [
            ('data_collection', '0x1.1999999999876p-1'),
            ('interrupt', '0x1.2d77318fc57b0p-9'),
            ('data_transfer', '0x1.368b897d337a4p-3'),
            ('app_compute', '0x1.23c42a66dbe00p-9'),
            ('idle', '0x0.0p+0'),
        ],
        "counters": (20, 20, 12000),
    },
    ('A2', 'batching', 250): {
        "energy": [
            ('board', 'idle', '0x1.f9bd10164d9f6p-4'),
            ('cpu', 'data_transfer', '0x1.e2cab98580965p+0'),
            ('cpu', 'interrupt', '0x1.2a3055326191cp-6'),
            ('cpu', 'app_compute', '0x1.6c72192210000p-7'),
            ('mcu', 'data_collection', '0x1.08af81626b219p-4'),
            ('mcu', 'interrupt', '0x1.d5c31593eaccdp-18'),
            ('mcu', 'data_transfer', '0x1.0b0d32a6d4a3bp-8'),
            ('mcu_board', 'idle', '0x1.5128b56433bfap-6'),
            ('nic', 'idle', '0x0.0p+0'),
            ('nic', 'app_compute', '0x1.77cf447653333p-17'),
            ('pio_bus', 'idle', '0x0.0p+0'),
            ('pio_bus', 'data_transfer', '0x1.55fd1b019c700p-5'),
            ('sensor:S4', 'data_collection', '0x1.005532617c090p-1'),
            ('sensor:S4', 'idle', '0x1.5d6940771acdep-12'),
        ],
        "busy": [
            ('data_collection', '0x1.1999999999876p-1'),
            ('interrupt', '0x1.e2584f4c6f600p-12'),
            ('data_transfer', '0x1.353bfe24a5429p-3'),
            ('app_compute', '0x1.23c42a66dbe00p-9'),
            ('idle', '0x0.0p+0'),
        ],
        "counters": (4, 4, 12000),
    },
    ('A11+A6', 'bcom', 250): {
        "energy": [
            ('board', 'idle', '0x1.d829e852a15c7p-2'),
            ('cpu', 'data_transfer', '0x1.0d72d66a85dc3p+1'),
            ('cpu', 'interrupt', '0x1.3333333333374p-6'),
            ('cpu', 'app_compute', '0x1.a4480b3a44eccp+3'),
            ('mcu', 'data_collection', '0x1.83d25247cb6cep-4'),
            ('mcu', 'interrupt', '0x1.2599ed7c73ccdp-17'),
            ('mcu', 'data_transfer', '0x1.14b2fe446ece5p-3'),
            ('mcu', 'app_compute', '0x1.1302d46c1c050p-4'),
            ('mcu_board', 'idle', '0x1.3ac69ae1c0e85p-4'),
            ('nic', 'idle', '0x0.0p+0'),
            ('nic', 'app_compute', '0x1.0b2d5aac1ecccp-12'),
            ('pio_bus', 'idle', '0x0.0p+0'),
            ('pio_bus', 'data_transfer', '0x1.791ae5a6293b0p-6'),
            ('sensor:S8', 'data_collection', '0x1.a9fbe76c8b243p-3'),
            ('sensor:S8', 'idle', '0x1.dd6d4817b1ff9p-5'),
            ('sensor:S9', 'data_collection', '0x1.d70a3d70a3b88p-3'),
            ('sensor:S9', 'idle', '0x1.bf96739636df0p-2'),
        ],
        "busy": [
            ('data_collection', '0x1.1999999999783p-1'),
            ('interrupt', '0x1.2d77318fc5300p-11'),
            ('data_transfer', '0x1.d1b019c709ccep-4'),
            ('app_compute', '0x1.68d38792b744cp+1'),
            ('idle', '0x0.0p+0'),
        ],
        "counters": (5, 4, 6600),
    },
    ('A11+A6', 'batching', 1000): {
        "energy": [
            ('board', 'idle', '0x1.d2ec894eafa87p-2'),
            ('cpu', 'data_transfer', '0x1.4b395810624dbp+1'),
            ('cpu', 'interrupt', '0x1.3c36113404e30p-7'),
            ('cpu', 'app_compute', '0x1.a5f0a74cbda17p+3'),
            ('mcu', 'data_collection', '0x1.836deb95e5ac5p-4'),
            ('mcu', 'interrupt', '0x1.6052502ef0ccdp-18'),
            ('mcu', 'data_transfer', '0x1.2d5eff6407b3ep-3'),
            ('mcu_board', 'idle', '0x1.37485b89ca705p-4'),
            ('nic', 'idle', '0x0.0p+0'),
            ('nic', 'app_compute', '0x1.0b2d5aac1ecccp-12'),
            ('pio_bus', 'idle', '0x0.0p+0'),
            ('pio_bus', 'data_transfer', '0x1.003eea209aa98p-4'),
            ('sensor:S8', 'data_collection', '0x1.a9fbe76c8b243p-3'),
            ('sensor:S8', 'idle', '0x1.d7d67c57c13f9p-5'),
            ('sensor:S9', 'data_collection', '0x1.d70a3d70a3b88p-3'),
            ('sensor:S9', 'idle', '0x1.ba591492452b0p-2'),
        ],
        "busy": [
            ('data_collection', '0x1.1999999999785p-1'),
            ('interrupt', '0x1.69c23b7952c00p-12'),
            ('data_transfer', '0x1.4f7b9e060fe43p-2'),
            ('app_compute', '0x1.5190672b4168fp+1'),
            ('idle', '0x0.0p+0'),
        ],
        "counters": (3, 2, 18000),
    },
}

#: The same sixteen runs, keyed by (scenario label, scheme, batch size
#: or ``None``) -> (``hub.sim.events_executed``, ((component,
#: ``len(timeline.changes)``), ...) in ledger order).
EVENT_GOLDEN = {
    ('A11+A6', 'baseline', None): (
        21007,
        (
            ('cpu', 13006),
            ('mcu', 18002),
            ('pio_bus', 6001),
            ('nic', 5),
            ('board', 1),
            ('mcu_board', 1),
            ('sensor:S8', 4001),
            ('sensor:S9', 2001),
        ),
    ),
    ('A11+A6', 'batching', None): (
        9016,
        (
            ('cpu', 17),
            ('mcu', 6010),
            ('pio_bus', 5),
            ('nic', 5),
            ('board', 1),
            ('mcu_board', 1),
            ('sensor:S8', 4001),
            ('sensor:S9', 2001),
        ),
    ),
    ('A11+A6', 'bcom', None): (
        9015,
        (
            ('cpu', 15),
            ('mcu', 6012),
            ('pio_bus', 5),
            ('nic', 5),
            ('board', 1),
            ('mcu_board', 1),
            ('sensor:S8', 4001),
            ('sensor:S9', 2001),
        ),
    ),
    ('A2', 'baseline', None): (
        7004,
        (
            ('cpu', 5004),
            ('mcu', 6002),
            ('pio_bus', 2001),
            ('nic', 3),
            ('board', 1),
            ('mcu_board', 1),
            ('sensor:S4', 2001),
        ),
    ),
    ('A2', 'batching', None): (
        3009,
        (
            ('cpu', 11),
            ('mcu', 2006),
            ('pio_bus', 3),
            ('nic', 3),
            ('board', 1),
            ('mcu_board', 1),
            ('sensor:S4', 2001),
        ),
    ),
    ('A2', 'bcom', None): (
        3008,
        (
            ('cpu', 9),
            ('mcu', 2008),
            ('pio_bus', 3),
            ('nic', 3),
            ('board', 1),
            ('mcu_board', 1),
            ('sensor:S4', 2001),
        ),
    ),
    ('A2', 'beam', None): (
        7004,
        (
            ('cpu', 5004),
            ('mcu', 6002),
            ('pio_bus', 2001),
            ('nic', 3),
            ('board', 1),
            ('mcu_board', 1),
            ('sensor:S4', 2001),
        ),
    ),
    ('A2', 'com', None): (
        3008,
        (
            ('cpu', 9),
            ('mcu', 2008),
            ('pio_bus', 3),
            ('nic', 3),
            ('board', 1),
            ('mcu_board', 1),
            ('sensor:S4', 2001),
        ),
    ),
    ('A2', 'polling', None): (
        3003,
        (
            ('cpu', 4005),
            ('mcu', 1),
            ('pio_bus', 1),
            ('nic', 3),
            ('board', 1),
            ('mcu_board', 1),
            ('sensor:S4', 2001),
        ),
    ),
    ('A2+A7', 'baseline', None): (
        13008,
        (
            ('cpu', 10005),
            ('mcu', 12002),
            ('pio_bus', 4001),
            ('nic', 5),
            ('board', 1),
            ('mcu_board', 1),
            ('sensor:S4', 4001),
        ),
    ),
    ('A2+A7', 'bcom', None): (
        5016,
        (
            ('cpu', 16),
            ('mcu', 4014),
            ('pio_bus', 5),
            ('nic', 5),
            ('board', 1),
            ('mcu_board', 1),
            ('sensor:S4', 4001),
        ),
    ),
    ('A2+A7', 'beam', None): (
        7007,
        (
            ('cpu', 5006),
            ('mcu', 6002),
            ('pio_bus', 2001),
            ('nic', 5),
            ('board', 1),
            ('mcu_board', 1),
            ('sensor:S4', 2001),
        ),
    ),
    ('A11+A6', 'batching', 1000): (
        8996,
        (
            ('cpu', 24),
            ('mcu', 6014),
            ('pio_bus', 7),
            ('nic', 5),
            ('board', 1),
            ('mcu_board', 1),
            ('sensor:S8', 4001),
            ('sensor:S9', 2001),
        ),
    ),
    ('A11+A6', 'bcom', 250): (
        9018,
        (
            ('cpu', 36),
            ('mcu', 6024),
            ('pio_bus', 11),
            ('nic', 5),
            ('board', 1),
            ('mcu_board', 1),
            ('sensor:S8', 4001),
            ('sensor:S9', 2001),
        ),
    ),
    ('A2', 'batching', 50): (
        3104,
        (
            ('cpu', 144),
            ('mcu', 2082),
            ('pio_bus', 41),
            ('nic', 3),
            ('board', 1),
            ('mcu_board', 1),
            ('sensor:S4', 2001),
        ),
    ),
    ('A2', 'batching', 250): (
        3012,
        (
            ('cpu', 32),
            ('mcu', 2018),
            ('pio_bus', 9),
            ('nic', 3),
            ('board', 1),
            ('mcu_board', 1),
            ('sensor:S4', 2001),
        ),
    ),
}


#: Analytic-tier runs at 30 windows, keyed by (scenario label, scheme):
#: the ``GOLDEN`` format plus each run's QoS violations and every app's
#: result times (``float.hex()``).  A2 batching and A2+A7 BEAM are
#: extrapolated from a truncated scan; A4+A5 baseline (no steady state)
#: and A2+A4 BCOM (a QoS violation in the truncated scan) fall back to
#: the full scan.
ANALYTIC_LONG_GOLDEN = {
    ('A2', 'batching'): {
        "energy": [
            ('board', 'idle', '0x1.ce6a601b1dbdap+1'),
            ('cpu', 'data_transfer', '0x1.bd431098d477ap+5'),
            ('cpu', 'interrupt', '0x1.178d4fdf3c120p-3'),
            ('mcu', 'data_collection', '0x1.f039085f490a8p+0'),
            ('mcu', 'interrupt', '0x1.b866e43a65999p-15'),
            ('mcu', 'data_transfer', '0x1.59a008010ed80p-4'),
            ('mcu_board', 'idle', '0x1.3446eabcbe7e7p-1'),
            ('nic', 'idle', '0x0.0p+0'),
            ('pio_bus', 'idle', '0x0.0p+0'),
            ('sensor:S4', 'data_collection', '0x1.e09fbe76c7b91p+3'),
            ('sensor:S4', 'idle', '0x1.37d430e2803edp-7'),
            ('cpu', 'app_compute', '0x1.55aaf78fee9f0p-2'),
            ('nic', 'app_compute', '0x1.6052502ec8332p-12'),
            ('pio_bus', 'data_transfer', '0x1.4027525460adap+0'),
        ],
        "busy": [
            ('data_collection', '0x1.07ffffffff4e1p+4'),
            ('interrupt', '0x1.c432ca57a8a00p-9'),
            ('data_transfer', '0x1.21ad42c3c9f1cp+2'),
            ('app_compute', '0x1.1187e7c06dcf0p-4'),
            ('idle', '0x0.0p+0'),
        ],
        "counters": (30, 30, 360000),
        "qos": [],
        "result_times": {
            'stepcounter': [
                '0x1.1aebdfff204ddp+0', '0x1.0d75efff9026ep+1', '0x1.8d75efff9026dp+1',
                '0x1.06baf7ffc8137p+2', '0x1.46baf7ffc8136p+2', '0x1.86baf7ffc8136p+2',
                '0x1.c6baf7ffc8136p+2', '0x1.035d7bffe409bp+3', '0x1.235d7bffe409bp+3',
                '0x1.435d7bffe409bp+3', '0x1.635d7bffe409bp+3', '0x1.835d7bffe409bp+3',
                '0x1.a35d7bffe409bp+3', '0x1.c35d7bffe409bp+3', '0x1.e35d7bffe409bp+3',
                '0x1.01aebdfff204ep+4', '0x1.11aebdfff204ep+4', '0x1.21aebdfff204ep+4',
                '0x1.31aebdfff204ep+4', '0x1.41aebdfff204ep+4', '0x1.51aebdfff204ep+4',
                '0x1.61aebdfff204ep+4', '0x1.71aebdfff204ep+4', '0x1.81aebdfff204ep+4',
                '0x1.91aebdfff204ep+4', '0x1.a1aebdfff204ep+4', '0x1.b1aebdfff204ep+4',
                '0x1.c1aebdfff204ep+4', '0x1.d1aebdfff204ep+4', '0x1.e1aebdfff204ep+4',
            ],
        },
    },
    ('A2+A7', 'beam'): {
        "energy": [
            ('board', 'idle', '0x1.cda6c5f4e8d3ap+1'),
            ('cpu', 'data_transfer', '0x1.cf20ca7686329p+6'),
            ('cpu', 'interrupt', '0x1.0800000002622p+4'),
            ('cpu', 'app_compute', '0x1.0a656b6167943p+3'),
            ('mcu', 'data_collection', '0x1.0cd013a927bc1p-1'),
            ('mcu', 'interrupt', '0x1.ae147ae106ee2p-5'),
            ('mcu', 'data_transfer', '0x1.b0b4018891c86p+0'),
            ('mcu_board', 'idle', '0x1.33c483f89b37cp-1'),
            ('nic', 'idle', '0x0.0p+0'),
            ('pio_bus', 'idle', '0x0.0p+0'),
            ('pio_bus', 'data_transfer', '0x1.d999999992716p+0'),
            ('sensor:S4', 'data_collection', '0x1.e09fbe76c7b91p+3'),
            ('sensor:S4', 'idle', '0x1.36cd4d3a6a47ep-7'),
            ('nic', 'app_compute', '0x1.083dbc23290ccp-9'),
        ],
        "busy": [
            ('data_collection', '0x1.07ffffffff4e1p+4'),
            ('interrupt', '0x1.b99999999a863p+1'),
            ('data_transfer', '0x1.0ffffffffed1ep+3'),
            ('app_compute', '0x1.aaf3e56e6a192p+0'),
            ('idle', '0x0.0p+0'),
        ],
        "counters": (30000, 0, 360000),
        "qos": [],
        "result_times": {
            'stepcounter': [
                '0x1.008770e9bebcbp+0', '0x1.0043b874df5e6p+1', '0x1.8043b874df5e5p+1',
                '0x1.0021dc3a6faf3p+2', '0x1.4021dc3a6faf2p+2', '0x1.8021dc3a6faf2p+2',
                '0x1.c021dc3a6faf2p+2', '0x1.0010ee1d37d79p+3', '0x1.2010ee1d37d79p+3',
                '0x1.4010ee1d37d79p+3', '0x1.6010ee1d37d79p+3', '0x1.8010ee1d37d79p+3',
                '0x1.a010ee1d37d79p+3', '0x1.c010ee1d37d79p+3', '0x1.e010ee1d37d79p+3',
                '0x1.0008770e9bebcp+4', '0x1.1008770e9bebcp+4', '0x1.2008770e9bebcp+4',
                '0x1.3008770e9bebcp+4', '0x1.4008770e9bebcp+4', '0x1.5008770e9bebcp+4',
                '0x1.6008770e9bebcp+4', '0x1.7008770e9bebcp+4', '0x1.8008770e9bebcp+4',
                '0x1.9008770e9bebcp+4', '0x1.a008770e9bebcp+4', '0x1.b008770e9bebcp+4',
                '0x1.c008770e9bebcp+4', '0x1.d008770e9bebcp+4', '0x1.e008770e9bebcp+4',
            ],
            'earthquake': [
                '0x1.0e2ba519c638ep+0', '0x1.0715d28ce31c7p+1', '0x1.8715d28ce31c6p+1',
                '0x1.038ae946718e4p+2', '0x1.438ae946718e3p+2', '0x1.838ae946718e3p+2',
                '0x1.c38ae946718e3p+2', '0x1.01c574a338c72p+3', '0x1.21c574a338c72p+3',
                '0x1.41c574a338c72p+3', '0x1.61c574a338c72p+3', '0x1.81c574a338c72p+3',
                '0x1.a1c574a338c72p+3', '0x1.c1c574a338c72p+3', '0x1.e1c574a338c72p+3',
                '0x1.00e2ba519c639p+4', '0x1.10e2ba519c639p+4', '0x1.20e2ba519c639p+4',
                '0x1.30e2ba519c639p+4', '0x1.40e2ba519c639p+4', '0x1.50e2ba519c639p+4',
                '0x1.60e2ba519c639p+4', '0x1.70e2ba519c639p+4', '0x1.80e2ba519c639p+4',
                '0x1.90e2ba519c639p+4', '0x1.a0e2ba519c639p+4', '0x1.b0e2ba519c639p+4',
                '0x1.c0e2ba519c639p+4', '0x1.d0e2ba519c639p+4', '0x1.e0e2ba519c639p+4',
            ],
        },
    },
    ('A4+A5', 'baseline'): {
        "energy": [
            ('board', 'idle', '0x1.0636edf16d19cp+2'),
            ('cpu', 'data_transfer', '0x1.af2a4c4b7897dp+6'),
            ('cpu', 'interrupt', '0x1.c63645a1c28d2p+5'),
            ('cpu', 'app_compute', '0x1.893c5c22a2f90p+2'),
            ('mcu', 'data_collection', '0x1.ce78c00560617p+0'),
            ('mcu', 'interrupt', '0x1.71f9f01c547e3p-3'),
            ('mcu', 'data_transfer', '0x1.2d1872b336f36p+1'),
            ('mcu_board', 'idle', '0x1.5d9e92973c225p-1'),
            ('nic', 'idle', '0x0.0p+0'),
            ('nic', 'app_compute', '0x1.083dbc2331ea7p-5'),
            ('pio_bus', 'idle', '0x0.0p+0'),
            ('pio_bus', 'data_transfer', '0x1.0469f32a7a102p+3'),
            ('sensor:S1', 'data_collection', '0x1.6f025aee6327ap+4'),
            ('sensor:S1', 'idle', '0x1.94646cef60346p-6'),
            ('sensor:S10', 'data_collection', '0x1.8ca9930be0df4p+2'),
            ('sensor:S10', 'idle', '0x1.b7cecd953996cp-1'),
            ('sensor:S2', 'data_collection', '0x1.6cdc28f5c29f1p+3'),
            ('sensor:S2', 'idle', '0x1.77123239a7e02p-6'),
            ('sensor:S4', 'data_collection', '0x1.e09fbe76c84c2p+4'),
            ('sensor:S4', 'idle', '0x1.5611fb1654da4p-9'),
            ('sensor:S5', 'data_collection', '0x1.7bb2fec56ccafp+3'),
            ('sensor:S5', 'idle', '0x1.bcc6e184f07f9p-6'),
            ('sensor:S7', 'data_collection', '0x1.8810624dcff32p+1'),
            ('sensor:S7', 'idle', '0x1.0be021d7ec670p-1'),
        ],
        "busy": [
            ('data_collection', '0x1.63c346dc61f80p+6'),
            ('interrupt', '0x1.7be2eb1c45f7cp+3'),
            ('data_transfer', '0x1.0657619f0fd76p+5'),
            ('app_compute', '0x1.46446347c770fp+0'),
            ('idle', '0x0.0p+0'),
        ],
        "counters": (103230, 0, 1749120),
        "qos": [
            'm2x window 7: result at 9079.3 ms, deadline 9000.0 ms',
            'blynk window 7: result at 9104.9 ms, deadline 9000.0 ms',
            'm2x window 8: result at 10217.4 ms, deadline 10000.0 ms',
            'blynk window 8: result at 10242.9 ms, deadline 10000.0 ms',
            'm2x window 9: result at 11355.4 ms, deadline 11000.0 ms',
            'blynk window 9: result at 11381.0 ms, deadline 11000.0 ms',
            'm2x window 10: result at 12493.5 ms, deadline 12000.0 ms',
            'blynk window 10: result at 12519.0 ms, deadline 12000.0 ms',
            'm2x window 11: result at 13631.5 ms, deadline 13000.0 ms',
            'blynk window 11: result at 13657.1 ms, deadline 13000.0 ms',
            'm2x window 12: result at 14769.6 ms, deadline 14000.0 ms',
            'blynk window 12: result at 14795.1 ms, deadline 14000.0 ms',
            'm2x window 13: result at 15907.6 ms, deadline 15000.0 ms',
            'blynk window 13: result at 15933.2 ms, deadline 15000.0 ms',
            'm2x window 14: result at 17045.7 ms, deadline 16000.0 ms',
            'blynk window 14: result at 17071.2 ms, deadline 16000.0 ms',
            'm2x window 15: result at 18183.8 ms, deadline 17000.0 ms',
            'blynk window 15: result at 18209.3 ms, deadline 17000.0 ms',
            'm2x window 16: result at 19321.8 ms, deadline 18000.0 ms',
            'blynk window 16: result at 19347.3 ms, deadline 18000.0 ms',
            'm2x window 17: result at 20459.9 ms, deadline 19000.0 ms',
            'blynk window 17: result at 20485.4 ms, deadline 19000.0 ms',
            'm2x window 18: result at 21597.9 ms, deadline 20000.0 ms',
            'blynk window 18: result at 21623.4 ms, deadline 20000.0 ms',
            'm2x window 19: result at 22736.0 ms, deadline 21000.0 ms',
            'blynk window 19: result at 22761.5 ms, deadline 21000.0 ms',
            'm2x window 20: result at 23874.0 ms, deadline 22000.0 ms',
            'blynk window 20: result at 23899.5 ms, deadline 22000.0 ms',
            'm2x window 21: result at 25012.1 ms, deadline 23000.0 ms',
            'blynk window 21: result at 25037.6 ms, deadline 23000.0 ms',
            'm2x window 22: result at 26150.1 ms, deadline 24000.0 ms',
            'blynk window 22: result at 26175.7 ms, deadline 24000.0 ms',
            'm2x window 23: result at 27288.2 ms, deadline 25000.0 ms',
            'blynk window 23: result at 27313.7 ms, deadline 25000.0 ms',
            'm2x window 24: result at 28426.2 ms, deadline 26000.0 ms',
            'blynk window 24: result at 28451.8 ms, deadline 26000.0 ms',
            'm2x window 25: result at 29564.3 ms, deadline 27000.0 ms',
            'blynk window 25: result at 29589.8 ms, deadline 27000.0 ms',
            'm2x window 26: result at 30702.3 ms, deadline 28000.0 ms',
            'blynk window 26: result at 30727.9 ms, deadline 28000.0 ms',
            'm2x window 27: result at 31840.4 ms, deadline 29000.0 ms',
            'blynk window 27: result at 31865.9 ms, deadline 29000.0 ms',
            'm2x window 28: result at 32978.4 ms, deadline 30000.0 ms',
            'blynk window 28: result at 33004.0 ms, deadline 30000.0 ms',
            'm2x window 29: result at 34116.5 ms, deadline 31000.0 ms',
            'blynk window 29: result at 34142.0 ms, deadline 31000.0 ms',
        ],
        "result_times": {
            'm2x': [
                '0x1.1cec8394dff13p+0', '0x1.2021eabacf3b6p+1', '0x1.b1cd93ab2e42ap+1',
                '0x1.21bc9e4dc6f20p+2', '0x1.6a9272c5f70e3p+2', '0x1.b368473e272a6p+2',
                '0x1.fc3e1bb657469p+2', '0x1.2289f81742e17p+3', '0x1.46f4e2535a188p+3',
                '0x1.6b5fcc8f714f9p+3', '0x1.8fcab6cb8886ap+3', '0x1.b435a1079fbdbp+3',
                '0x1.d8a08b43b6f4cp+3', '0x1.fd0b757fce2bdp+3', '0x1.10bb2fddf2cfdp+4',
                '0x1.22f0a4fbfe8bdp+4', '0x1.35261a1a0a47dp+4', '0x1.475b8f381603dp+4',
                '0x1.5991045621bfdp+4', '0x1.6bc679742d7bdp+4', '0x1.7dfbee923937dp+4',
                '0x1.903163b044f3dp+4', '0x1.a266d8ce50afdp+4', '0x1.b49c4dec5c6bdp+4',
                '0x1.c6d1c30a6827dp+4', '0x1.d907382873e3dp+4', '0x1.eb3cad467f9fdp+4',
                '0x1.fd7222648b5bdp+4', '0x1.07d3cbc14b96bp+5', '0x1.10ee865051813p+5',
            ],
            'blynk': [
                '0x1.23767c604db9fp+0', '0x1.2366e720861fcp+1', '0x1.b5129010e5270p+1',
                '0x1.235f1c80a2644p+2', '0x1.6c34f0f8d2807p+2', '0x1.b50ac571029cap+2',
                '0x1.fde099e932b8dp+2', '0x1.235b3730b09a8p+3', '0x1.47c6216cc7d19p+3',
                '0x1.6c310ba8df08ap+3', '0x1.909bf5e4f63fbp+3', '0x1.b506e0210d76cp+3',
                '0x1.d971ca5d24addp+3', '0x1.fddcb4993be4ep+3', '0x1.1123cf6aa9ac5p+4',
                '0x1.23594488b5685p+4', '0x1.358eb9a6c1245p+4', '0x1.47c42ec4cce05p+4',
                '0x1.59f9a3e2d89c5p+4', '0x1.6c2f1900e4585p+4', '0x1.7e648e1ef0145p+4',
                '0x1.909a033cfbd05p+4', '0x1.a2cf785b078c5p+4', '0x1.b504ed7913485p+4',
                '0x1.c73a62971f045p+4', '0x1.d96fd7b52ac05p+4', '0x1.eba54cd3367c5p+4',
                '0x1.fddac1f142385p+4', '0x1.08081b87a704fp+5', '0x1.1122d616acef7p+5',
            ],
        },
    },
    ('A2+A4', 'bcom'): {
        "energy": [
            ('board', 'idle', '0x1.303aaab8bbeb7p+2'),
            ('cpu', 'idle', '0x1.1ba3478be092cp+4'),
            ('cpu', 'interrupt', '0x1.820c49ba5e13fp+0'),
            ('cpu', 'data_transfer', '0x1.44cbb52e02f58p+0'),
            ('mcu', 'data_collection', '0x1.7961e0c5b9aa4p+1'),
            ('mcu', 'app_compute', '0x1.ae2a881291522p+1'),
            ('mcu', 'interrupt', '0x1.b866e43bf600ap-14'),
            ('mcu', 'data_transfer', '0x1.d4b7058b74f9fp-10'),
            ('mcu_board', 'idle', '0x1.95a38e4ba539fp-1'),
            ('nic', 'idle', '0x0.0p+0'),
            ('nic', 'app_compute', '0x1.65d3996fa8dacp-6'),
            ('pio_bus', 'idle', '0x0.0p+0'),
            ('pio_bus', 'data_transfer', '0x1.be30e101c6930p-3'),
            ('sensor:S1', 'data_collection', '0x1.6f025aee6326bp+3'),
            ('sensor:S1', 'idle', '0x1.ec9598732ff92p-5'),
            ('sensor:S2', 'data_collection', '0x1.6cdc28f5c29bdp+2'),
            ('sensor:S2', 'idle', '0x1.166e5d5b3c800p-5'),
            ('sensor:S4', 'data_collection', '0x1.e09fbe76ca52ep+4'),
            ('sensor:S4', 'idle', '0x1.8ce7d5b26ebc9p-8'),
            ('sensor:S5', 'data_collection', '0x1.7bb2fec56c53bp+2'),
            ('sensor:S5', 'idle', '0x1.4cca4c8a38ba6p-5'),
            ('sensor:S7', 'data_collection', '0x1.8810624dcfebfp+1'),
            ('sensor:S7', 'idle', '0x1.3aee8ee01b79dp-1'),
        ],
        "busy": [
            ('data_collection', '0x1.e3b851eb8eb04p+5'),
            ('interrupt', '0x1.c432ca57ae800p-8'),
            ('data_transfer', '0x1.c8057619f1068p-2'),
            ('app_compute', '0x1.34428a9f6e6a0p+3'),
            ('idle', '0x0.0p+0'),
        ],
        "counters": (60, 59, 62400),
        "qos": [
            'm2x window 3: result at 5297.0 ms, deadline 5000.0 ms',
            'stepcounter window 4: result at 6301.2 ms, deadline 6000.0 ms',
            'm2x window 4: result at 6616.8 ms, deadline 6000.0 ms',
            'stepcounter window 5: result at 7631.1 ms, deadline 7000.0 ms',
            'm2x window 5: result at 7936.7 ms, deadline 7000.0 ms',
            'stepcounter window 6: result at 8951.0 ms, deadline 8000.0 ms',
            'm2x window 6: result at 9256.7 ms, deadline 8000.0 ms',
            'stepcounter window 7: result at 10270.9 ms, deadline 9000.0 ms',
            'm2x window 7: result at 10576.5 ms, deadline 9000.0 ms',
            'stepcounter window 8: result at 11590.7 ms, deadline 10000.0 ms',
            'm2x window 8: result at 11896.4 ms, deadline 10000.0 ms',
            'stepcounter window 9: result at 12910.5 ms, deadline 11000.0 ms',
            'm2x window 9: result at 13216.2 ms, deadline 11000.0 ms',
            'stepcounter window 10: result at 14230.4 ms, deadline 12000.0 ms',
            'm2x window 10: result at 14536.1 ms, deadline 12000.0 ms',
            'stepcounter window 11: result at 15550.4 ms, deadline 13000.0 ms',
            'm2x window 11: result at 15856.0 ms, deadline 13000.0 ms',
            'stepcounter window 12: result at 16870.2 ms, deadline 14000.0 ms',
            'm2x window 12: result at 17175.9 ms, deadline 14000.0 ms',
            'stepcounter window 13: result at 18190.1 ms, deadline 15000.0 ms',
            'm2x window 13: result at 18495.7 ms, deadline 15000.0 ms',
            'stepcounter window 14: result at 19509.9 ms, deadline 16000.0 ms',
            'm2x window 14: result at 19815.6 ms, deadline 16000.0 ms',
            'stepcounter window 15: result at 20829.8 ms, deadline 17000.0 ms',
            'm2x window 15: result at 21135.5 ms, deadline 17000.0 ms',
            'stepcounter window 16: result at 22149.8 ms, deadline 18000.0 ms',
            'm2x window 16: result at 22455.4 ms, deadline 18000.0 ms',
            'stepcounter window 17: result at 23469.7 ms, deadline 19000.0 ms',
            'm2x window 17: result at 23775.3 ms, deadline 19000.0 ms',
            'stepcounter window 18: result at 24789.5 ms, deadline 20000.0 ms',
            'm2x window 18: result at 25095.1 ms, deadline 20000.0 ms',
            'stepcounter window 19: result at 26109.3 ms, deadline 21000.0 ms',
            'm2x window 19: result at 26414.9 ms, deadline 21000.0 ms',
            'stepcounter window 20: result at 27429.1 ms, deadline 22000.0 ms',
            'm2x window 20: result at 27734.8 ms, deadline 22000.0 ms',
            'stepcounter window 21: result at 28749.1 ms, deadline 23000.0 ms',
            'm2x window 21: result at 29054.7 ms, deadline 23000.0 ms',
            'stepcounter window 22: result at 30068.8 ms, deadline 24000.0 ms',
            'm2x window 22: result at 30374.3 ms, deadline 24000.0 ms',
            'stepcounter window 23: result at 31388.5 ms, deadline 25000.0 ms',
            'm2x window 23: result at 31694.0 ms, deadline 25000.0 ms',
            'stepcounter window 24: result at 32708.2 ms, deadline 26000.0 ms',
            'm2x window 24: result at 33013.7 ms, deadline 26000.0 ms',
            'stepcounter window 25: result at 34027.9 ms, deadline 27000.0 ms',
            'm2x window 25: result at 34333.4 ms, deadline 27000.0 ms',
            'stepcounter window 26: result at 35347.6 ms, deadline 28000.0 ms',
            'm2x window 26: result at 35653.1 ms, deadline 28000.0 ms',
            'stepcounter window 27: result at 36667.3 ms, deadline 29000.0 ms',
            'm2x window 27: result at 36972.8 ms, deadline 29000.0 ms',
            'stepcounter window 28: result at 37987.0 ms, deadline 30000.0 ms',
            'm2x window 28: result at 38292.4 ms, deadline 30000.0 ms',
            'stepcounter window 29: result at 39306.7 ms, deadline 31000.0 ms',
            'm2x window 29: result at 39612.1 ms, deadline 31000.0 ms',
        ],
        "result_times": {
            'stepcounter': [
                '0x1.082300e5c1310p+0', '0x1.2d03f4869b10cp+1', '0x1.d5f4c52c2701dp+1',
                '0x1.3f72cae8d93dap+2', '0x1.93468a7a4a2e3p+2', '0x1.e8639b8e64b1cp+2',
                '0x1.1e6ed3a7acc83p+3', '0x1.48ab07d10fe3cp+3', '0x1.72e73bfa72ff5p+3',
                '0x1.9d2307484a6e7p+3', '0x1.c75fa44d39367p+3', '0x1.f19caa2db3aaep+3',
                '0x1.0dec6f2b8b2f0p+4', '0x1.230a89403c7e7p+4', '0x1.3828a354edcdep+4',
                '0x1.4d46f1d764f39p+4', '0x1.626574c7a1ef8p+4', '0x1.7783c34a19153p+4',
                '0x1.8ca1a8f1048e6p+4', '0x1.a1bf8e97f0079p+4', '0x1.b6dda8aca1570p+4',
                '0x1.cbfc2b9cde52fp+4', '0x1.e119dcd603f5ep+4', '0x1.f63759a163c29p+4',
                '0x1.05aa6b3661f1ep+5', '0x1.1039299c1216cp+5', '0x1.1ac7e801c23bap+5',
                '0x1.2556a66772608p+5', '0x1.2fe564cd22856p+5', '0x1.3a742332d2aa4p+5',
            ],
            'm2x': [
                '0x1.56617f8181449p+0', '0x1.542333d47b1a6p+1', '0x1.fd14047a070b8p+1',
                '0x1.53026a8fc9426p+2', '0x1.a77a012b77a39p+2', '0x1.fbf33b3554b68p+2',
                '0x1.2836a37b24caap+3', '0x1.5272d7a487e63p+3', '0x1.7caf0bcdeb01cp+3',
                '0x1.a6ead71bc270ep+3', '0x1.d1277420b138ep+3', '0x1.fb647a012bad5p+3',
                '0x1.12d0571547305p+4', '0x1.27ee7129f87fcp+4', '0x1.3d0c8b3ea9cf3p+4',
                '0x1.522ad9c120f4ep+4', '0x1.67495cb15df0dp+4', '0x1.7c67ab33d5168p+4',
                '0x1.918590dac08fbp+4', '0x1.a6a37681ac08ep+4', '0x1.bbc190965d585p+4',
                '0x1.d0e013869a544p+4', '0x1.e5fcf308a89e3p+4', '0x1.fb1a6fd4086aep+4',
                '0x1.081bf64fb4462p+5', '0x1.12aab4b5646b0p+5', '0x1.1d39731b148fep+5',
                '0x1.27c83180c4b4cp+5', '0x1.3256efe674d9ap+5', '0x1.3ce5ae4c24fe8p+5',
            ],
        },
    },
}

#: The counter each ``ANALYTIC_LONG_GOLDEN`` evaluation records: which
#: points are extrapolated and why the others fall back.
ANALYTIC_LONG_PATHS = {
    ('A2', 'batching'): "analytic.cycles_skipped",
    ('A2+A7', 'beam'): "analytic.cycles_skipped",
    ('A4+A5', 'baseline'): "analytic.extrapolation.fallback.no_steady_state",
    ('A2+A4', 'bcom'): "analytic.extrapolation.fallback.qos_violation",
}


def ledger_of(result):
    """A result's ledger in the tables' format."""
    return {
        "energy": [
            (component, routine, joules.hex())
            for (component, routine), joules
            in result.energy.by_component_routine.items()
        ],
        "busy": [
            (routine, seconds.hex()) for routine, seconds in result.busy_times.items()
        ],
        "counters": (
            result.interrupt_count, result.cpu_wake_count, result.bus_bytes
        ),
    }


def times_of(result):
    """A result's delivery times per app, as ``float.hex()`` strings."""
    return {
        app: [t.hex() for t in times]
        for app, times in result.result_times.items()
    }


@pytest.mark.parametrize(
    "label,scheme,fidelity",
    [
        pytest.param(label, scheme, "des", id=f"{label}-{scheme}")
        for label, scheme in sorted(GOLDEN)
    ]
    + [
        pytest.param(label, scheme, "analytic", id=f"{label}-{scheme}-analytic")
        for label, scheme in sorted(GOLDEN)
    ],
)
def test_ledger_bit_identical(label, scheme, fidelity):
    golden = GOLDEN[(label, scheme)]
    des = run_apps(APPS[label], scheme)
    if fidelity == "des":
        assert ledger_of(des) == golden
        return
    result = analytic_scenario_result(Scenario.of(APPS[label], scheme=scheme))
    assert ledger_of(result) == golden
    assert times_of(result) == times_of(des)


@pytest.mark.parametrize(
    "label,scheme",
    list(ANALYTIC_LONG_GOLDEN),
    ids=[f"{label}-{scheme}" for label, scheme in ANALYTIC_LONG_GOLDEN],
)
def test_analytic_long_horizon_bit_identical(label, scheme):
    golden = ANALYTIC_LONG_GOLDEN[(label, scheme)]
    recorder = TraceRecorder()
    result = analytic_scenario_result(
        Scenario.of(label.split("+"), scheme=scheme, windows=30),
        obs=recorder,
    )
    assert ANALYTIC_LONG_PATHS[(label, scheme)] in recorder.counters
    assert {
        **ledger_of(result),
        "qos": list(result.qos_violations),
        "result_times": times_of(result),
    } == golden


def test_golden_covers_energy_parity_pairs():
    from .test_energy_parity import GOLDEN as PARITY

    assert set(GOLDEN) == set(PARITY)


@pytest.mark.parametrize(
    "label,scheme,batch_size,fidelity",
    [
        pytest.param(
            label, scheme, size, fidelity,
            id=f"{label}-{scheme}-b{size}" + suffix,
        )
        for fidelity, suffix in (("des", ""), ("analytic", "-analytic"))
        for label, scheme, size in sorted(PARTIAL_BATCH_GOLDEN)
    ],
)
def test_partial_batch_ledger_bit_identical(label, scheme, batch_size, fidelity):
    golden = PARTIAL_BATCH_GOLDEN[(label, scheme, batch_size)]
    scenario = Scenario.of(APPS[label], scheme=scheme, batch_size=batch_size)
    if fidelity == "des":
        assert ledger_of(run_scenario(scenario)) == golden
        return
    result = analytic_scenario_result(scenario)
    assert ledger_of(result) == golden
    assert times_of(result) == times_of(run_scenario(scenario))


def events_of(result):
    """A DES result's kernel output in ``EVENT_GOLDEN``'s format."""
    return (
        result.hub.sim.events_executed,
        tuple(
            (timeline.component, len(timeline.changes))
            for timeline in result.hub.recorder.timelines()
        ),
    )


def test_event_golden_covers_both_tables():
    assert set(EVENT_GOLDEN) == {
        (label, scheme, None) for label, scheme in GOLDEN
    } | set(PARTIAL_BATCH_GOLDEN)


@pytest.mark.parametrize(
    "label,scheme,batch_size",
    list(EVENT_GOLDEN),
    ids=[
        f"{label}-{scheme}" + (f"-b{size}" if size else "")
        for label, scheme, size in EVENT_GOLDEN
    ],
)
def test_event_count_and_ledger_changes_pinned(label, scheme, batch_size):
    result = run_scenario(
        Scenario.of(APPS[label], scheme=scheme, batch_size=batch_size)
    )
    events = events_of(result)
    assert events == EVENT_GOLDEN[(label, scheme, batch_size)]
    assert 2 * result.hub.bus.transfer_count + 1 == dict(events[1])["pio_bus"]
