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
count.  A faster event loop must neither add nor drop an event.
"""

import pytest

from repro.core import Scenario, run_apps, run_scenario
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
#: each window closes, a hand-off path the table above never takes (the
#: analytic tier defers these scenarios to the DES).
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
        27007,
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
        9020,
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
        9019,
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
        9004,
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
        3011,
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
        3010,
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
        9004,
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
        3010,
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
        17008,
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
        5020,
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
        9007,
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
        9002,
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
        9028,
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
        3144,
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
        3020,
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


@pytest.mark.parametrize(
    "label,scheme",
    sorted(GOLDEN),
    ids=[f"{label}-{scheme}" for label, scheme in sorted(GOLDEN)],
)
def test_ledger_bit_identical(label, scheme):
    golden = GOLDEN[(label, scheme)]
    result = run_apps(APPS[label], scheme)
    assert ledger_of(result) == golden


def test_golden_covers_energy_parity_pairs():
    from .test_energy_parity import GOLDEN as PARITY

    assert set(GOLDEN) == set(PARITY)


@pytest.mark.parametrize(
    "label,scheme,batch_size",
    sorted(PARTIAL_BATCH_GOLDEN),
    ids=[
        f"{label}-{scheme}-b{size}"
        for label, scheme, size in sorted(PARTIAL_BATCH_GOLDEN)
    ],
)
def test_partial_batch_ledger_bit_identical(label, scheme, batch_size):
    golden = PARTIAL_BATCH_GOLDEN[(label, scheme, batch_size)]
    result = run_scenario(
        Scenario.of(APPS[label], scheme=scheme, batch_size=batch_size)
    )
    assert ledger_of(result) == golden


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
    assert events_of(result) == EVENT_GOLDEN[(label, scheme, batch_size)]
