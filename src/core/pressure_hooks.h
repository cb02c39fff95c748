/**
 * @file
 * Memory-pressure hooks between the compressed controllers and the
 * pressure stack (src/pressure, src/os, src/service).
 *
 * A controller reports three things to an attached PressureListener:
 * machine-memory exhaustion (so the governor can balloon emergency
 * room and the allocation can retry), the admission of
 * pressure-sensitive operations before they run, and their actual
 * device-op cost afterwards (the watchdog's stall budget). The balloon
 * consults a PartitionPolicy before it frees a page, so multi-tenant
 * service mode can keep reclaim inside the right partition.
 */

#ifndef COMPRESSO_CORE_PRESSURE_HOOKS_H
#define COMPRESSO_CORE_PRESSURE_HOOKS_H

#include <cstdint>

#include "common/types.h"

namespace compresso {

/** Pressure-sensitive operation classes, in the order of
 *  WatchdogConfig::op_budget and the soak export's op list. */
enum class PressureOp : uint8_t
{
    kRepack,
    kRelocation,
    kMetaRebuild,
    kInflation,
    kCount
};

inline const char *
pressureOpName(PressureOp op)
{
    switch (op) {
    case PressureOp::kRepack:
        return "repack";
    case PressureOp::kRelocation:
        return "relocation";
    case PressureOp::kMetaRebuild:
        return "meta_rebuild";
    case PressureOp::kInflation:
        return "inflation";
    case PressureOp::kCount:
        break;
    }
    return "unknown";
}

/** Controller -> pressure governor callbacks. */
class PressureListener
{
  public:
    virtual ~PressureListener() = default;
    /** Machine memory ran out while serving @p busy_page; true if the
     *  listener freed room and the controller should retry. */
    virtual bool onMachineOom(PageNum busy_page) = 0;
    /** May an operation of class @p op, costing about @p est_ops
     *  device ops, run now? */
    virtual bool admitOp(PressureOp op, uint64_t est_ops) = 0;
    /** Actual device-op cost of a completed operation. */
    virtual void onOpCost(PressureOp op, uint64_t ops) = 0;
};

/** Reclaim guard the balloon consults before it frees a page. */
class PartitionPolicy
{
  public:
    virtual ~PartitionPolicy() = default;
    virtual bool mayFreePage(PageNum page) = 0;
};

} // namespace compresso

#endif // COMPRESSO_CORE_PRESSURE_HOOKS_H
