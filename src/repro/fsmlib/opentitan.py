"""OpenTitan-like controller FSMs used by the Table 1 / Figure 8 experiments.

The paper protects seven security-relevant FSMs of the OpenTitan secure
element.  We do not ship the OpenTitan RTL; instead each controller is
re-specified here from its publicly documented behaviour (state names,
transition structure and the control signals that drive it), at the state and
transition counts of the original.  The whole-module reference areas reported
by the paper (column "Unprotected Area [GE]" of Table 1) are kept alongside,
because the paper's overhead percentages are relative to the whole module, of
which the FSM is only a part -- see DESIGN.md for the substitution rationale.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

from repro.fsm.model import Fsm, FsmBuilder

if TYPE_CHECKING:
    from repro.synth.flow import ModuleModel

#: Whole-module unprotected areas reported in Table 1 of the paper (GE).
OPENTITAN_MODULE_AREAS_GE: Dict[str, float] = {
    "adc_ctrl_fsm": 1019.0,
    "aes_control": 632.0,
    "i2c_fsm": 2729.0,
    "ibex_controller": 537.0,
    "ibex_lsu": 933.0,
    "otbn_controller": 2857.0,
    "pwrmgr_fsm": 301.0,
}

#: Datapath pipeline depth used when a full-module netlist is generated.
_MODULE_DATAPATH_DEPTH: Dict[str, int] = {
    "adc_ctrl_fsm": 22,
    "aes_control": 20,
    "i2c_fsm": 24,
    "ibex_controller": 18,
    "ibex_lsu": 20,
    "otbn_controller": 26,
    "pwrmgr_fsm": 16,
}


def adc_ctrl_fsm() -> Fsm:
    """The ADC controller FSM: power sequencing plus one-shot/low-power sampling."""
    builder = FsmBuilder("adc_ctrl_fsm")
    builder.state("PWRDN", reset=True)
    builder.state("PWRUP", adc_pd=0)
    builder.state("ONEST_0", chn_sel=1)
    builder.state("ONEST_021")
    builder.state("ONEST_1", chn_sel=2)
    builder.state("ONEST_DONE", oneshot_done=1)
    builder.state("LP_0", chn_sel=1)
    builder.state("LP_021")
    builder.state("LP_1", chn_sel=2)
    builder.state("LP_EVAL")
    builder.state("LP_SLP", adc_pd=1)
    builder.state("LP_PWRUP", adc_pd=0)
    builder.state("NP_0", chn_sel=1)
    builder.state("NP_021")
    builder.state("NP_1", chn_sel=2)
    builder.state("NP_EVAL", sample_done=1)
    builder.output("chn_sel", width=2)
    builder.output("adc_pd")
    builder.output("oneshot_done")
    builder.output("sample_done")

    builder.input("enable")
    builder.input("oneshot_mode")
    builder.input("lp_mode")
    builder.input("pwrup_done")
    builder.input("adc_done")
    builder.input("delay_done")
    builder.input("wakeup_timer_done")
    builder.input("match")
    builder.input("stable_match")

    builder.transition("PWRDN", "PWRUP", enable=1)
    builder.transition("PWRUP", "ONEST_0", pwrup_done=1, oneshot_mode=1)
    builder.transition("PWRUP", "LP_0", pwrup_done=1, oneshot_mode=0, lp_mode=1)
    builder.transition("PWRUP", "NP_0", pwrup_done=1, oneshot_mode=0, lp_mode=0)

    builder.transition("ONEST_0", "ONEST_021", adc_done=1)
    builder.transition("ONEST_021", "ONEST_1", delay_done=1)
    builder.transition("ONEST_1", "ONEST_DONE", adc_done=1)
    builder.transition("ONEST_DONE", "PWRDN", enable=0)

    builder.transition("LP_0", "LP_021", adc_done=1)
    builder.transition("LP_021", "LP_1", delay_done=1)
    builder.transition("LP_1", "LP_EVAL", adc_done=1)
    builder.transition("LP_EVAL", "NP_0", match=1)
    builder.transition("LP_EVAL", "LP_SLP", match=0)
    builder.transition("LP_SLP", "LP_PWRUP", wakeup_timer_done=1)
    builder.transition("LP_PWRUP", "LP_0", pwrup_done=1)

    builder.transition("NP_0", "NP_021", adc_done=1)
    builder.transition("NP_021", "NP_1", delay_done=1)
    builder.transition("NP_1", "NP_EVAL", adc_done=1)
    builder.transition("NP_EVAL", "LP_0", stable_match=1, lp_mode=1)
    builder.transition("NP_EVAL", "NP_0", stable_match=0)
    builder.transition("NP_EVAL", "PWRDN", enable=0)
    return builder.build()


def aes_control_fsm() -> Fsm:
    """The AES unit control FSM: load, PRNG handling, rounds and clearing."""
    builder = FsmBuilder("aes_control")
    builder.state("IDLE", reset=True, idle=1)
    builder.state("LOAD", data_load=1)
    builder.state("PRNG_UPDATE")
    builder.state("PRNG_RESEED")
    builder.state("INIT_KEY", key_expand=1)
    builder.state("ROUND", round_en=1)
    builder.state("FINISH", data_valid=1)
    builder.state("CLEAR_S", clear_state=1)
    builder.state("CLEAR_KD", clear_key=1)
    builder.output("idle")
    builder.output("data_load")
    builder.output("key_expand")
    builder.output("round_en")
    builder.output("data_valid")
    builder.output("clear_state")
    builder.output("clear_key")

    builder.input("start")
    builder.input("key_ready")
    builder.input("prng_reseed_req")
    builder.input("prng_ok")
    builder.input("last_round")
    builder.input("out_ack")
    builder.input("clear_req")

    builder.transition("IDLE", "CLEAR_S", clear_req=1)
    builder.transition("IDLE", "LOAD", start=1)
    builder.transition("LOAD", "PRNG_RESEED", prng_reseed_req=1)
    builder.transition("LOAD", "PRNG_UPDATE", prng_reseed_req=0)
    builder.transition("PRNG_RESEED", "PRNG_UPDATE", prng_ok=1)
    builder.transition("PRNG_UPDATE", "INIT_KEY", key_ready=0)
    builder.transition("PRNG_UPDATE", "ROUND", key_ready=1)
    builder.transition("INIT_KEY", "ROUND", key_ready=1)
    builder.transition("ROUND", "FINISH", last_round=1)
    builder.transition("FINISH", "IDLE", out_ack=1)
    builder.transition("CLEAR_S", "CLEAR_KD")
    builder.transition("CLEAR_KD", "IDLE")
    return builder.build()


def i2c_fsm() -> Fsm:
    """The I2C host FSM: start/stop conditions, address and data phases."""
    builder = FsmBuilder("i2c_fsm")
    builder.state("IDLE", reset=True, host_idle=1)
    builder.state("START_SETUP", sda_o=1)
    builder.state("START_HOLD", sda_o=0)
    builder.state("ADDR_CLK_LOW", scl_o=0)
    builder.state("ADDR_SET", scl_o=0)
    builder.state("ADDR_CLK_PULSE", scl_o=1)
    builder.state("ADDR_ACK_WAIT", scl_o=1)
    builder.state("WRITE_CLK_LOW", scl_o=0)
    builder.state("WRITE_SET", scl_o=0)
    builder.state("WRITE_CLK_PULSE", scl_o=1)
    builder.state("WRITE_ACK_WAIT", scl_o=1)
    builder.state("READ_CLK_LOW", scl_o=0)
    builder.state("READ_SAMPLE", scl_o=1)
    builder.state("READ_ACK_SET", scl_o=0)
    builder.state("READ_ACK_PULSE", scl_o=1)
    builder.state("STOP_SETUP", sda_o=0)
    builder.state("STOP_HOLD", sda_o=1)
    builder.state("ACTIVE_HOLD")
    builder.output("host_idle")
    builder.output("sda_o")
    builder.output("scl_o")

    builder.input("host_enable")
    builder.input("fmt_valid")
    builder.input("tcount_done")
    builder.input("bit_last")
    builder.input("byte_last")
    builder.input("read_cmd")
    builder.input("nack")
    builder.input("stop_req")
    builder.input("restart_req")
    builder.input("stretch")

    builder.transition("IDLE", "START_SETUP", host_enable=1, fmt_valid=1)
    builder.transition("START_SETUP", "START_HOLD", tcount_done=1)
    builder.transition("START_HOLD", "ADDR_CLK_LOW", tcount_done=1)
    builder.transition("ADDR_CLK_LOW", "ADDR_SET", tcount_done=1)
    builder.transition("ADDR_SET", "ADDR_CLK_PULSE", tcount_done=1)
    builder.transition("ADDR_CLK_PULSE", "ADDR_ACK_WAIT", tcount_done=1, bit_last=1)
    builder.transition("ADDR_CLK_PULSE", "ADDR_CLK_LOW", tcount_done=1, bit_last=0)
    builder.transition("ADDR_ACK_WAIT", "STOP_SETUP", nack=1)
    builder.transition("ADDR_ACK_WAIT", "READ_CLK_LOW", tcount_done=1, read_cmd=1)
    builder.transition("ADDR_ACK_WAIT", "WRITE_CLK_LOW", tcount_done=1, read_cmd=0)
    builder.transition("WRITE_CLK_LOW", "WRITE_SET", tcount_done=1)
    builder.transition("WRITE_SET", "WRITE_CLK_PULSE", tcount_done=1)
    builder.transition("WRITE_CLK_PULSE", "WRITE_ACK_WAIT", tcount_done=1, bit_last=1)
    builder.transition("WRITE_CLK_PULSE", "WRITE_CLK_LOW", tcount_done=1, bit_last=0)
    builder.transition("WRITE_ACK_WAIT", "STOP_SETUP", nack=1)
    builder.transition("WRITE_ACK_WAIT", "ACTIVE_HOLD", tcount_done=1, byte_last=1)
    builder.transition("WRITE_ACK_WAIT", "WRITE_CLK_LOW", tcount_done=1, byte_last=0)
    builder.transition("READ_CLK_LOW", "READ_SAMPLE", tcount_done=1, stretch=0)
    builder.transition("READ_SAMPLE", "READ_ACK_SET", bit_last=1)
    builder.transition("READ_SAMPLE", "READ_CLK_LOW", bit_last=0)
    builder.transition("READ_ACK_SET", "READ_ACK_PULSE", tcount_done=1)
    builder.transition("READ_ACK_PULSE", "ACTIVE_HOLD", byte_last=1)
    builder.transition("READ_ACK_PULSE", "READ_CLK_LOW", byte_last=0)
    builder.transition("ACTIVE_HOLD", "START_SETUP", restart_req=1)
    builder.transition("ACTIVE_HOLD", "STOP_SETUP", stop_req=1)
    builder.transition("ACTIVE_HOLD", "WRITE_CLK_LOW", fmt_valid=1, read_cmd=0)
    builder.transition("ACTIVE_HOLD", "READ_CLK_LOW", fmt_valid=1, read_cmd=1)
    builder.transition("STOP_SETUP", "STOP_HOLD", tcount_done=1)
    builder.transition("STOP_HOLD", "IDLE", tcount_done=1)
    return builder.build()


def ibex_controller_fsm() -> Fsm:
    """The Ibex core controller FSM: boot, sleep, decode and trap handling."""
    builder = FsmBuilder("ibex_controller")
    builder.state("RESET", reset=True)
    builder.state("BOOT_SET", instr_req=1)
    builder.state("WAIT_SLEEP")
    builder.state("SLEEP", core_sleeping=1)
    builder.state("FIRST_FETCH", instr_req=1)
    builder.state("DECODE", instr_req=1, decoding=1)
    builder.state("FLUSH", pipe_flush=1)
    builder.state("IRQ_TAKEN", exc_pc_set=1)
    builder.state("DBG_TAKEN_IF", debug_mode=1)
    builder.state("DBG_TAKEN_ID", debug_mode=1)
    builder.output("instr_req")
    builder.output("core_sleeping")
    builder.output("decoding")
    builder.output("pipe_flush")
    builder.output("exc_pc_set")
    builder.output("debug_mode")

    builder.input("fetch_enable")
    builder.input("irq_pending")
    builder.input("debug_req")
    builder.input("halt_req")
    builder.input("wfi")
    builder.input("exception")
    builder.input("flush_done")
    builder.input("wake_req")

    builder.transition("RESET", "BOOT_SET", fetch_enable=1)
    builder.transition("BOOT_SET", "FIRST_FETCH")
    builder.transition("FIRST_FETCH", "DECODE", fetch_enable=1)
    builder.transition("FIRST_FETCH", "IRQ_TAKEN", irq_pending=1)
    builder.transition("DECODE", "DBG_TAKEN_ID", debug_req=1)
    builder.transition("DECODE", "IRQ_TAKEN", irq_pending=1)
    builder.transition("DECODE", "FLUSH", exception=1)
    builder.transition("DECODE", "WAIT_SLEEP", wfi=1)
    builder.transition("DECODE", "FLUSH", halt_req=1)
    builder.transition("FLUSH", "DECODE", flush_done=1, exception=0)
    builder.transition("FLUSH", "IRQ_TAKEN", flush_done=1, exception=1)
    builder.transition("IRQ_TAKEN", "DECODE")
    builder.transition("WAIT_SLEEP", "SLEEP")
    builder.transition("SLEEP", "FIRST_FETCH", wake_req=1)
    builder.transition("SLEEP", "DBG_TAKEN_IF", debug_req=1)
    builder.transition("DBG_TAKEN_IF", "DECODE")
    builder.transition("DBG_TAKEN_ID", "DECODE")
    return builder.build()


def ibex_lsu_fsm() -> Fsm:
    """The Ibex load-store unit FSM: grant/rvalid handshakes incl. misaligned."""
    builder = FsmBuilder("ibex_lsu")
    builder.state("IDLE", reset=True, ls_ready=1)
    builder.state("WAIT_GNT", data_req=1)
    builder.state("WAIT_RVALID")
    builder.state("WAIT_GNT_MIS", data_req=1)
    builder.state("WAIT_RVALID_MIS", data_req=1)
    builder.state("WAIT_RVALID_MIS_GNTS_DONE")
    builder.output("ls_ready")
    builder.output("data_req")

    builder.input("lsu_req")
    builder.input("misaligned")
    builder.input("gnt")
    builder.input("rvalid")
    builder.input("err")

    builder.transition("IDLE", "WAIT_GNT_MIS", lsu_req=1, misaligned=1)
    builder.transition("IDLE", "WAIT_GNT", lsu_req=1, misaligned=0)
    builder.transition("WAIT_GNT", "WAIT_RVALID", gnt=1)
    builder.transition("WAIT_RVALID", "IDLE", rvalid=1)
    builder.transition("WAIT_GNT_MIS", "WAIT_RVALID_MIS", gnt=1)
    builder.transition("WAIT_RVALID_MIS", "WAIT_RVALID_MIS_GNTS_DONE", gnt=1)
    builder.transition("WAIT_RVALID_MIS", "IDLE", err=1)
    builder.transition("WAIT_RVALID_MIS_GNTS_DONE", "IDLE", rvalid=1)
    return builder.build()


def otbn_controller_fsm() -> Fsm:
    """The OTBN controller FSM: run/stall loop with lock-down on errors."""
    builder = FsmBuilder("otbn_controller")
    builder.state("HALT", reset=True, idle=1)
    builder.state("URND_REFRESH")
    builder.state("RUN", executing=1)
    builder.state("STALL", executing=1)
    builder.state("FLUSH")
    builder.state("LOCKED", locked=1)
    builder.output("idle")
    builder.output("executing")
    builder.output("locked")

    builder.input("start")
    builder.input("urnd_ack")
    builder.input("stall")
    builder.input("insn_done")
    builder.input("fatal_err")
    builder.input("secure_wipe_done")

    builder.transition("HALT", "URND_REFRESH", start=1)
    builder.transition("URND_REFRESH", "LOCKED", fatal_err=1)
    builder.transition("URND_REFRESH", "RUN", urnd_ack=1)
    builder.transition("RUN", "LOCKED", fatal_err=1)
    builder.transition("RUN", "STALL", stall=1)
    builder.transition("RUN", "FLUSH", insn_done=1)
    builder.transition("STALL", "LOCKED", fatal_err=1)
    builder.transition("STALL", "RUN", stall=0)
    builder.transition("FLUSH", "HALT", secure_wipe_done=1)
    builder.transition("FLUSH", "LOCKED", fatal_err=1)
    return builder.build()


def pwrmgr_fsm() -> Fsm:
    """The power manager fast FSM: power-up sequencing and low-power entry."""
    builder = FsmBuilder("pwrmgr_fsm")
    builder.state("LOW_POWER", reset=True)
    builder.state("ENABLE_CLOCKS", clk_en=1)
    builder.state("RELEASE_LC_RST", clk_en=1)
    builder.state("OTP_INIT", clk_en=1)
    builder.state("LC_INIT", clk_en=1)
    builder.state("ACK_PWRUP", clk_en=1)
    builder.state("ROM_CHECK", clk_en=1)
    builder.state("ACTIVE", clk_en=1, core_active=1)
    builder.state("DIS_CLKS")
    builder.state("FALL_THROUGH", clk_en=1)
    builder.state("NVM_IDLE_CHK", clk_en=1)
    builder.state("LOW_POWER_PREP")
    builder.state("REQ_PWR_DN")
    builder.output("clk_en")
    builder.output("core_active")

    builder.input("pwr_up_req")
    builder.input("clks_stable")
    builder.input("lc_rst_done")
    builder.input("otp_done")
    builder.input("lc_done")
    builder.input("rom_good")
    builder.input("low_power_req")
    builder.input("nvm_idle")
    builder.input("wakeup_pending")
    builder.input("pwr_dn_ack")

    builder.transition("LOW_POWER", "ENABLE_CLOCKS", pwr_up_req=1)
    builder.transition("ENABLE_CLOCKS", "RELEASE_LC_RST", clks_stable=1)
    builder.transition("RELEASE_LC_RST", "OTP_INIT", lc_rst_done=1)
    builder.transition("OTP_INIT", "LC_INIT", otp_done=1)
    builder.transition("LC_INIT", "ACK_PWRUP", lc_done=1)
    builder.transition("ACK_PWRUP", "ROM_CHECK")
    builder.transition("ROM_CHECK", "ACTIVE", rom_good=1)
    builder.transition("ACTIVE", "NVM_IDLE_CHK", low_power_req=1)
    builder.transition("NVM_IDLE_CHK", "FALL_THROUGH", wakeup_pending=1)
    builder.transition("NVM_IDLE_CHK", "LOW_POWER_PREP", nvm_idle=1)
    builder.transition("FALL_THROUGH", "ACTIVE")
    builder.transition("LOW_POWER_PREP", "DIS_CLKS")
    builder.transition("DIS_CLKS", "REQ_PWR_DN", clks_stable=0)
    builder.transition("REQ_PWR_DN", "LOW_POWER", pwr_dn_ack=1)
    return builder.build()


def opentitan_fsms() -> List[Fsm]:
    """All seven Table 1 FSMs in the paper's order."""
    return [
        adc_ctrl_fsm(),
        aes_control_fsm(),
        i2c_fsm(),
        ibex_controller_fsm(),
        ibex_lsu_fsm(),
        otbn_controller_fsm(),
        pwrmgr_fsm(),
    ]


def opentitan_module_models() -> List[ModuleModel]:
    """Module models (FSM + whole-module reference area) for Table 1 / Figure 8."""
    from repro.synth.flow import ModuleModel  # the synthesis flow loads only here

    models = []
    for index, fsm in enumerate(opentitan_fsms()):
        models.append(
            ModuleModel(
                fsm=fsm,
                module_area_ge=OPENTITAN_MODULE_AREAS_GE[fsm.name],
                datapath_depth=_MODULE_DATAPATH_DEPTH[fsm.name],
                seed=index + 1,
            )
        )
    return models
