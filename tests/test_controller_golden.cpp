/**
 * @file
 * Golden controller digests: every compressed controller (compresso,
 * lcp, lcp+align, rmc, dmc) is driven directly through the
 * MemoryController interface by one seeded access mix, and everything
 * it reports is folded into a 64-bit digest that must match the value
 * pinned below. The mix writes zero, compressible and incompressible
 * lines and grows them over time, so line overflows, page overflows,
 * inflation, repacking, migrations, frees and flushes all happen.
 *
 * Three variants per controller:
 *  - plain: no fault injector, no pressure listener;
 *  - faults: a seeded FaultInjector with recovery on (data and
 *    metadata DUEs walk the degradation ladder);
 *  - pressure: a small machine arena and a scripted PressureListener
 *    that denies some admissions and rescues some OOMs by freeing
 *    pages.
 *
 * The digest covers every McTrace field, every filled line, the final
 * stats().counters() map (keys and values), audit(), the fault
 * injector's report and the listener's call log. A pure refactor of
 * the controllers must leave every digest unchanged; an intended
 * behaviour change must update the pins and say why.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/compresso_controller.h"
#include "core/dmc_controller.h"
#include "core/lcp_controller.h"
#include "core/pressure_hooks.h"
#include "core/rmc_controller.h"
#include "fault/fault_injector.h"
#include "workloads/datagen.h"

using namespace compresso;

namespace {

constexpr unsigned kPages = 48;
constexpr unsigned kOps = 20000;

/** 64-bit FNV-1a over everything a controller reports. */
class Digest
{
  public:
    void
    bytes(const void *p, size_t n)
    {
        const auto *b = static_cast<const uint8_t *>(p);
        for (size_t i = 0; i < n; ++i) {
            h_ ^= b[i];
            h_ *= 0x100000001b3ULL;
        }
    }

    void u64(uint64_t v) { bytes(&v, sizeof v); }
    void str(const std::string &s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }

    void
    trace(const McTrace &t)
    {
        u64(t.ops.size());
        for (const DramOp &op : t.ops) {
            u64(op.addr);
            u64(uint64_t(op.write) | uint64_t(op.critical) << 1 |
                uint64_t(op.comp) << 2);
        }
        u64(t.fixed_latency);
        for (Cycle c : t.fixed_by_comp)
            u64(c);
        u64(uint64_t(t.metadata_hit) | uint64_t(t.speculative_parallel) << 1);
        u64(t.stall_cycles);
        u64(uint64_t(t.stall_comp));
        u64(t.co_fetched.size());
        for (Addr a : t.co_fetched)
            u64(a);
    }

    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 0xcbf29ce484222325ULL;
};

/**
 * Deterministic pressure script: denies every fourth admission and
 * rescues OOMs by freeing up to two pages that hold storage and are
 * not busy. With @p deny_ooms it also refuses every third rescue.
 * Only Compresso gets refusals: the LCP, RMC and DMC models still
 * abort when an allocation inside a relayout fails for good.
 * Every call is logged into the digest.
 */
class ScriptedPressure : public PressureListener
{
  public:
    ScriptedPressure(MemoryController &mc, Digest &log, bool deny_ooms)
        : mc_(mc), log_(log), deny_ooms_(deny_ooms)
    {
    }

    bool
    onMachineOom(PageNum busy_page) override
    {
        log_.u64(0xa0);
        log_.u64(busy_page);
        if (deny_ooms_ && ++ooms_ % 3 == 0)
            return false;
        unsigned freed = 0;
        for (unsigned i = 0; i < kPages && freed < 2; ++i) {
            PageNum p = (cursor_ + i) % kPages;
            if (p == busy_page || mc_.pageBusy(p) ||
                mc_.pageCompressedBytes(p) == 0)
                continue;
            mc_.freePage(p);
            log_.u64(p);
            ++freed;
        }
        cursor_ = (cursor_ + 7) % kPages;
        return freed > 0;
    }

    bool
    admitOp(PressureOp op, uint64_t est_ops) override
    {
        log_.u64(0xa1);
        log_.u64(uint64_t(op));
        log_.u64(est_ops);
        return ++admits_ % 4 != 0;
    }

    void
    onOpCost(PressureOp op, uint64_t ops) override
    {
        log_.u64(0xa2);
        log_.u64(uint64_t(op));
        log_.u64(ops);
    }

  private:
    MemoryController &mc_;
    Digest &log_;
    bool deny_ooms_;
    unsigned ooms_ = 0;
    unsigned admits_ = 0;
    PageNum cursor_ = 0;
};

enum class Variant
{
    kPlain,
    kFaults,
    kPressure
};

std::unique_ptr<MemoryController>
makeController(const std::string &kind, Variant v)
{
    // Pressure runs get a machine arena far below the footprint.
    uint64_t installed = v == Variant::kPressure ? uint64_t(10) * kPageBytes
                                                 : uint64_t(16) << 20;
    MetadataCacheConfig md{1024, 4, /*half_entry_opt=*/true};
    if (kind == "compresso") {
        CompressoConfig cfg;
        cfg.installed_bytes = installed;
        cfg.mdcache = md;
        return std::make_unique<CompressoController>(cfg);
    }
    md.half_entry_opt = false;
    if (kind == "lcp" || kind == "lcp+align") {
        LcpConfig cfg;
        cfg.alignment_friendly = kind == "lcp+align";
        cfg.installed_bytes = installed;
        cfg.mdcache = md;
        return std::make_unique<LcpController>(cfg);
    }
    if (kind == "rmc") {
        RmcConfig cfg;
        cfg.installed_bytes = installed;
        cfg.bst = md;
        return std::make_unique<RmcController>(cfg);
    }
    DmcConfig cfg;
    cfg.installed_bytes = installed;
    cfg.mdcache = md;
    cfg.epoch_writebacks = 200;
    return std::make_unique<DmcController>(cfg);
}

/** Compressibility ladder a line climbs as it is rewritten. */
constexpr DataClass kLadder[] = {
    DataClass::kZero,  DataClass::kConstant, DataClass::kSmallInt,
    DataClass::kDeltaInt, DataClass::kFloat, DataClass::kText,
    DataClass::kRandom,
};
constexpr unsigned kRungs = sizeof(kLadder) / sizeof(kLadder[0]);

struct RunResult
{
    uint64_t digest = 0;
    StatGroup stats;
    ReliabilityReport faults;
};

RunResult
runDigest(const std::string &kind, Variant v)
{
    std::unique_ptr<MemoryController> mc = makeController(kind, v);
    Digest d;

    FaultConfig fcfg;
    fcfg.seed = 0x901d;
    fcfg.data_bit_rate = 2e-4;
    fcfg.meta_bit_rate = 1e-3;
    fcfg.double_bit_frac = 0.3;
    fcfg.max_meta_rebuilds = 1;
    FaultInjector fi(fcfg);
    if (v == Variant::kFaults)
        mc->attachFaultInjector(&fi);
    ScriptedPressure pressure(*mc, d, kind == "compresso");
    if (v == Variant::kPressure)
        mc->attachPressureListener(&pressure);

    Rng rng(0x60d1 + uint64_t(v));
    std::vector<uint8_t> rung(kPages * kLinesPerPage, 0);
    for (unsigned i = 0; i < kOps; ++i) {
        // A window of hot pages slides over the footprint, so pages go
        // cold (DMC demotion, metadata-cache eviction) and come back.
        PageNum page = (i / 1000 * 5 + rng.below(12)) % kPages;
        LineIdx line = LineIdx(rng.below(kLinesPerPage));
        Addr addr = Addr(page) * kPageBytes + Addr(line) * kLineBytes;
        uint64_t roll = rng.below(100);
        McTrace tr;
        if (roll < 50) {
            // Writes mostly climb the ladder (growth -> overflows);
            // some fall back to zero (underflow -> repack/demotion).
            uint8_t &r = rung[page * kLinesPerPage + line];
            uint64_t step = rng.below(10);
            if (step < 6 && r + 1u < kRungs)
                ++r;
            else if (step == 9)
                r = 0;
            Line data;
            generateLine(kLadder[r], rng.next(), data);
            mc->writebackLine(addr, data, tr);
        } else if (roll < 98) {
            Line data;
            mc->fillLine(addr, data, tr);
            d.bytes(data.data(), data.size());
        } else if (roll < 99) {
            mc->freePage(page);
            for (unsigned l = 0; l < kLinesPerPage; ++l)
                rung[page * kLinesPerPage + l] = 0;
        } else {
            mc->flush();
        }
        d.trace(tr);
    }
    mc->flush();

    for (const auto &[key, value] : mc->stats().counters()) {
        d.str(key);
        d.u64(value);
    }
    d.str(mc->audit().summary());
    d.u64(mc->ospaBytes());
    d.u64(mc->mpaDataBytes());
    d.u64(mc->mpaMetadataBytes());
    const ReliabilityReport &rep = fi.report();
    for (uint64_t x :
         {rep.single_bit_faults, rep.double_bit_faults, rep.multi_bit_faults,
          rep.chunk_faults, rep.data_faults, rep.metadata_faults,
          rep.corrected, rep.detected_uncorrectable, rep.silent_corruptions,
          rep.lines_poisoned, rep.pages_poisoned, rep.meta_rebuilds,
          rep.pages_inflated_safety, rep.audit_recoveries,
          rep.recovery_device_ops})
        d.u64(x);
    return RunResult{d.value(), mc->stats(), rep};
}

struct GoldenCase
{
    const char *kind;
    Variant variant;
    uint64_t digest;
};

std::string
caseName(const ::testing::TestParamInfo<GoldenCase> &info)
{
    static const char *const kVariant[] = {"plain", "faults", "pressure"};
    std::string name = info.param.kind;
    for (char &c : name)
        if (c == '+')
            c = '_';
    return name + "_" + kVariant[int(info.param.variant)];
}

} // namespace

class ControllerGolden : public ::testing::TestWithParam<GoldenCase>
{
};

TEST_P(ControllerGolden, DigestMatchesPin)
{
    const GoldenCase &c = GetParam();
    RunResult r = runDigest(c.kind, c.variant);
    EXPECT_EQ(r.digest, c.digest) << "digest 0x" << std::hex << r.digest;

    // A pin is only worth something if the run reaches the paths its
    // variant exists for.
    EXPECT_GT(r.stats.get("line_overflows"), 0u);
    EXPECT_GT(r.stats.get("pages_freed"), 0u);
    if (c.variant == Variant::kFaults) {
        EXPECT_GT(r.faults.lines_poisoned, 0u);
        EXPECT_GT(r.faults.meta_rebuilds, 0u);
        EXPECT_GT(r.faults.pages_inflated_safety, 0u);
    }
    if (c.variant == Variant::kPressure) {
        EXPECT_GT(r.stats.get("oom_rescues"), 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllDesigns, ControllerGolden,
    ::testing::Values(
        GoldenCase{"compresso", Variant::kPlain, 0xb0218bfa7cf22b65ULL},
        GoldenCase{"compresso", Variant::kFaults, 0x85282855d75140deULL},
        GoldenCase{"compresso", Variant::kPressure, 0x2505a9b2d0fe9a24ULL},
        GoldenCase{"lcp", Variant::kPlain, 0xb7144a39e62a736ULL},
        GoldenCase{"lcp", Variant::kFaults, 0xb077bc310ebe350fULL},
        GoldenCase{"lcp", Variant::kPressure, 0x2957e7c9c60f3f23ULL},
        GoldenCase{"lcp+align", Variant::kPlain, 0x768243ea51d08d15ULL},
        GoldenCase{"lcp+align", Variant::kFaults, 0xad882cf034b7f09eULL},
        GoldenCase{"lcp+align", Variant::kPressure, 0x266832cd40e5abffULL},
        GoldenCase{"rmc", Variant::kPlain, 0xe1756e1e17f58ba1ULL},
        GoldenCase{"rmc", Variant::kFaults, 0x34d94e645534d5d9ULL},
        GoldenCase{"rmc", Variant::kPressure, 0xd14a45e41b18cbe9ULL},
        GoldenCase{"dmc", Variant::kPlain, 0x8d62abd624ae40c5ULL},
        GoldenCase{"dmc", Variant::kFaults, 0x258df6fdfff84a56ULL},
        GoldenCase{"dmc", Variant::kPressure, 0x6961c3ff0b291939ULL}),
    caseName);
