// CLI option-parsing tests: the string->enum vocabulary, policy combos,
// full command lines, override plumbing into SimConfig, and diagnostics.
#include <gtest/gtest.h>

#include "sim/options.hpp"

namespace llamcat {
namespace {

ParseResult parse(std::initializer_list<std::string_view> args) {
  return parse_cli_options(std::vector<std::string_view>(args));
}

// ------------------------------------------------------------ vocabulary --

TEST(OptionVocabulary, ArbPolicies) {
  EXPECT_EQ(arb_policy_from_string("fcfs"), ArbPolicy::kFcfs);
  EXPECT_EQ(arb_policy_from_string("B"), ArbPolicy::kBalanced);
  EXPECT_EQ(arb_policy_from_string("balanced"), ArbPolicy::kBalanced);
  EXPECT_EQ(arb_policy_from_string("MA"), ArbPolicy::kMa);
  EXPECT_EQ(arb_policy_from_string("BMA"), ArbPolicy::kBma);
  EXPECT_EQ(arb_policy_from_string("bma"), ArbPolicy::kBma);
  EXPECT_EQ(arb_policy_from_string("cobrra"), ArbPolicy::kCobrra);
  EXPECT_EQ(arb_policy_from_string("mrpb"), ArbPolicy::kMrpb);
  EXPECT_EQ(arb_policy_from_string("oracle"), ArbPolicy::kOracle);
  EXPECT_EQ(arb_policy_from_string("random"), ArbPolicy::kRandom);
  EXPECT_FALSE(arb_policy_from_string("nope").has_value());
}

TEST(OptionVocabulary, ThrottlePolicies) {
  EXPECT_EQ(throttle_policy_from_string("unopt"), ThrottlePolicy::kNone);
  EXPECT_EQ(throttle_policy_from_string("none"), ThrottlePolicy::kNone);
  EXPECT_EQ(throttle_policy_from_string("dyncta"), ThrottlePolicy::kDyncta);
  EXPECT_EQ(throttle_policy_from_string("lcs"), ThrottlePolicy::kLcs);
  EXPECT_EQ(throttle_policy_from_string("dynmg"), ThrottlePolicy::kDynMg);
  EXPECT_FALSE(throttle_policy_from_string("DYNMG").has_value());
}

TEST(OptionVocabulary, EnumsRoundTripWithToString) {
  for (ArbPolicy p : {ArbPolicy::kFcfs, ArbPolicy::kCobrra, ArbPolicy::kMrpb,
                      ArbPolicy::kOracle, ArbPolicy::kRandom}) {
    EXPECT_EQ(arb_policy_from_string(to_string(p)), p) << to_string(p);
  }
  for (ReplPolicy p : {ReplPolicy::kLru, ReplPolicy::kRandom,
                       ReplPolicy::kSrrip, ReplPolicy::kFifo}) {
    EXPECT_EQ(repl_policy_from_string(to_string(p)), p) << to_string(p);
  }
  for (RespArbPolicy p :
       {RespArbPolicy::kResponseFirst, RespArbPolicy::kRequestFirst}) {
    EXPECT_EQ(resp_arb_from_string(to_string(p)), p);
  }
}

TEST(OptionVocabulary, Models) {
  EXPECT_EQ(model_from_string("llama3-70b")->group_size, 8u);
  EXPECT_EQ(model_from_string("405b")->group_size, 16u);
  EXPECT_EQ(model_from_string("llama3-8b")->group_size, 4u);
  EXPECT_EQ(model_from_string("gemma2-27b")->num_kv_heads, 16u);
  EXPECT_FALSE(model_from_string("gpt-7").has_value());
}

TEST(OptionVocabulary, PolicyCombos) {
  auto c = policy_combo_from_string("dynmg+BMA");
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->throttle, ThrottlePolicy::kDynMg);
  EXPECT_EQ(c->arb, ArbPolicy::kBma);

  c = policy_combo_from_string("dyncta");
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->throttle, ThrottlePolicy::kDyncta);
  EXPECT_EQ(c->arb, ArbPolicy::kFcfs);

  c = policy_combo_from_string("BMA");  // bare arbitration
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->throttle, ThrottlePolicy::kNone);
  EXPECT_EQ(c->arb, ArbPolicy::kBma);

  c = policy_combo_from_string("unopt+MA");
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->arb, ArbPolicy::kMa);

  EXPECT_FALSE(policy_combo_from_string("dynmg+xyz").has_value());
  EXPECT_FALSE(policy_combo_from_string("foo+BMA").has_value());
  EXPECT_FALSE(policy_combo_from_string("").has_value());
}

// ---------------------------------------------------------- full parsing --

TEST(ParseCli, DefaultsAreTable5) {
  const ParseResult r = parse({});
  ASSERT_TRUE(r.ok());
  const SimConfig t5 = SimConfig::table5();
  EXPECT_EQ(r.options->cfg.core.num_cores, t5.core.num_cores);
  EXPECT_EQ(r.options->cfg.llc.size_bytes, t5.llc.size_bytes);
  EXPECT_EQ(r.options->op, "logit");
  EXPECT_EQ(r.options->seq_len, 4096u);
}

TEST(ParseCli, WorkloadFlags) {
  const ParseResult r = parse({"--model=llama3-405b", "--op=attend",
                               "--seq=16384"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.options->model.name, "llama3-405b");
  EXPECT_EQ(r.options->op, "attend");
  EXPECT_EQ(r.options->seq_len, 16384u);
}

TEST(ParseCli, PolicyComboSetsBothKnobs) {
  const ParseResult r = parse({"--policy=dynmg+BMA"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.options->cfg.throttle.policy, ThrottlePolicy::kDynMg);
  EXPECT_EQ(r.options->cfg.arb.policy, ArbPolicy::kBma);
}

TEST(ParseCli, CobrraImpliesRequestFirstArbitration) {
  const ParseResult r = parse({"--policy=unopt+cobrra"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.options->cfg.llc.resp_arb, RespArbPolicy::kRequestFirst);
}

TEST(ParseCli, MachineOverrides) {
  const ParseResult r =
      parse({"--cores=8", "--llc-mb=32", "--slices=4", "--mshr-entries=12",
             "--mshr-targets=4", "--repl=srrip", "--dispatch=wave",
             "--seed=99"});
  ASSERT_TRUE(r.ok());
  const SimConfig& cfg = r.options->cfg;
  EXPECT_EQ(cfg.core.num_cores, 8u);
  EXPECT_EQ(cfg.llc.size_bytes, 32ull << 20);
  EXPECT_EQ(cfg.llc.num_slices, 4u);
  EXPECT_EQ(cfg.llc.mshr_entries, 12u);
  EXPECT_EQ(cfg.llc.mshr_targets, 4u);
  EXPECT_EQ(cfg.llc.repl, ReplPolicy::kSrrip);
  EXPECT_EQ(cfg.core.tb_dispatch, TbDispatch::kPartitionedStealing);
  EXPECT_EQ(cfg.seed, 99u);
}

TEST(ParseCli, BypassFlags) {
  const ParseResult r = parse({"--bypass=prob", "--bypass-keep-p=0.75"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.options->cfg.llc.bypass.policy, BypassPolicy::kProbabilistic);
  EXPECT_DOUBLE_EQ(r.options->cfg.llc.bypass.keep_probability, 0.75);
}

TEST(ParseCli, OutputFlags) {
  const ParseResult r = parse({"--csv=out.csv", "--json=out.json",
                               "--counters", "--energy", "--verbose"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.options->csv_path, "out.csv");
  EXPECT_EQ(r.options->json_path, "out.json");
  EXPECT_TRUE(r.options->print_counters);
  EXPECT_TRUE(r.options->print_energy);
  EXPECT_TRUE(r.options->verbose);
}

TEST(ParseCli, HelpShortCircuits) {
  EXPECT_TRUE(parse({"--help"}).help_requested);
  EXPECT_TRUE(parse({"-h"}).help_requested);
  EXPECT_FALSE(parse({"--help"}).ok());
}

// ----------------------------------------------------------- batch flags --

TEST(ParseCli, BatchFlagsParse) {
  const ParseResult r = parse({"--op=batch", "--requests=4", "--layers=3",
                               "--seqs=256,512,1024", "--no-gemv"});
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.options->op, "batch");
  EXPECT_EQ(r.options->batch_requests, 4u);
  EXPECT_EQ(r.options->batch_layers, 3u);
  EXPECT_EQ(r.options->batch_seq_lens,
            (std::vector<std::uint64_t>{256, 512, 1024}));
  EXPECT_FALSE(r.options->batch_gemv);
}

TEST(ParseCli, BatchDefaults) {
  const ParseResult r = parse({"--op=batch"});
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.options->batch_requests, 2u);
  EXPECT_EQ(r.options->batch_layers, 2u);
  EXPECT_TRUE(r.options->batch_seq_lens.empty());
  EXPECT_TRUE(r.options->batch_gemv);
  EXPECT_EQ(r.options->batch_mode, ExecutionMode::kIndependent);
  EXPECT_EQ(r.options->batch_interleave, FuseOrder::kRoundRobin);
  EXPECT_EQ(r.options->cfg.core.request_dispatch, RequestDispatch::kShared);
}

TEST(ParseCli, ExecutionModeFlagsParse) {
  const ParseResult r =
      parse({"--op=batch", "--mode=coscheduled", "--interleave=concat",
             "--req-dispatch=partitioned"});
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.options->batch_mode, ExecutionMode::kCoScheduled);
  EXPECT_EQ(r.options->batch_interleave, FuseOrder::kConcat);
  EXPECT_EQ(r.options->cfg.core.request_dispatch,
            RequestDispatch::kPartitioned);

  EXPECT_FALSE(parse({"--mode=fused"}).ok());
  EXPECT_FALSE(parse({"--interleave=zipper"}).ok());
  EXPECT_FALSE(parse({"--req-dispatch=pinned"}).ok());
}

TEST(ParseCli, MalformedBatchFlagsAreErrors) {
  EXPECT_FALSE(parse({"--requests=0"}).ok());
  EXPECT_FALSE(parse({"--layers=x"}).ok());
  EXPECT_FALSE(parse({"--seqs="}).ok());
  EXPECT_FALSE(parse({"--seqs=256,,512"}).ok());
  EXPECT_FALSE(parse({"--seqs=256,"}).ok());
  EXPECT_FALSE(parse({"--seqs=256,0"}).ok());
  EXPECT_FALSE(parse({"--seqs=256,abc"}).ok());
  // Diagnostics name the flag and echo the offending value.
  const ParseResult r = parse({"--requests=99999999999999999999"});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error.find("--requests"), std::string::npos);
  EXPECT_NE(r.error.find("99999999999999999999"), std::string::npos);
}

TEST(ParseCli, ContinuousModeFlagsParse) {
  const ParseResult r =
      parse({"--op=batch", "--mode=continuous", "--seqs=4096,512,512",
             "--arrivals=0,0,200000", "--steps=2"});
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.options->batch_mode, ExecutionMode::kContinuous);
  EXPECT_EQ(r.options->batch_arrivals,
            (std::vector<std::uint64_t>{0, 0, 200000}));
  EXPECT_EQ(r.options->batch_steps, (std::vector<std::uint64_t>{2}));
}

TEST(ParseCli, ArrivalsRequireContinuousMode) {
  const ParseResult r =
      parse({"--op=batch", "--mode=coscheduled", "--arrivals=0,100"});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error.find("--arrivals"), std::string::npos);
  EXPECT_NE(r.error.find("continuous"), std::string::npos);
  // Zero-arrival entries are fine (unlike --seqs / --steps).
  EXPECT_TRUE(
      parse({"--op=batch", "--mode=continuous", "--arrivals=0,0"}).ok());
  EXPECT_FALSE(parse({"--op=batch", "--mode=continuous", "--steps=0"}).ok());
  // Step counts are stored as uint32 downstream: out-of-range values are
  // rejected here, not silently truncated.
  const ParseResult big =
      parse({"--op=batch", "--mode=continuous", "--steps=4294967297"});
  ASSERT_FALSE(big.ok());
  EXPECT_NE(big.error.find("32-bit"), std::string::npos);
}

TEST(ParseCli, ServingPolicyFlagsParse) {
  EXPECT_EQ(admit_policy_from_string("none"), AdmitPolicy::kNone);
  EXPECT_EQ(admit_policy_from_string("fcfs"), AdmitPolicy::kFcfs);
  EXPECT_EQ(admit_policy_from_string("srf"), AdmitPolicy::kShortestRemaining);
  EXPECT_EQ(admit_policy_from_string("shortest-remaining"),
            AdmitPolicy::kShortestRemaining);
  EXPECT_FALSE(admit_policy_from_string("lifo").has_value());

  const ParseResult r =
      parse({"--op=batch", "--mode=continuous", "--seqs=4096,512",
             "--admit-policy=srf", "--kv-budget=37748736", "--preempt"});
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.options->batch_admit, AdmitPolicy::kShortestRemaining);
  EXPECT_EQ(r.options->batch_kv_budget, 37748736u);
  EXPECT_TRUE(r.options->batch_preempt);
  // Defaults: unconditional admission, unlimited budget, no preemption.
  const ParseResult d = parse({"--op=batch", "--mode=continuous"});
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d.options->batch_admit, AdmitPolicy::kNone);
  EXPECT_EQ(d.options->batch_kv_budget, 0u);
  EXPECT_FALSE(d.options->batch_preempt);
}

TEST(ParseCli, ServingPolicyFlagsCrossChecked) {
  // The serving layer only exists in continuous mode.
  const ParseResult barrier =
      parse({"--op=batch", "--mode=coscheduled", "--admit-policy=fcfs"});
  ASSERT_FALSE(barrier.ok());
  EXPECT_NE(barrier.error.find("--admit-policy"), std::string::npos);
  EXPECT_NE(barrier.error.find("continuous"), std::string::npos);
  // A budget or preemption without a queueing discipline is contradictory.
  const ParseResult budget =
      parse({"--op=batch", "--mode=continuous", "--kv-budget=1048576"});
  ASSERT_FALSE(budget.ok());
  EXPECT_NE(budget.error.find("--kv-budget"), std::string::npos);
  EXPECT_NE(budget.error.find("--admit-policy"), std::string::npos);
  EXPECT_FALSE(parse({"--op=batch", "--mode=continuous", "--preempt"}).ok());
  EXPECT_FALSE(parse({"--admit-policy=fifo"}).ok());
  EXPECT_FALSE(parse({"--kv-budget=abc"}).ok());
  // Unlimited budget with a discipline is fine (pure queue-order study).
  EXPECT_TRUE(parse({"--op=batch", "--mode=continuous",
                     "--admit-policy=fcfs"})
                  .ok());
}

TEST(ParseCli, PagedEvictionFlagsParse) {
  EXPECT_EQ(kv_evict_policy_from_string("none"), KvEvictPolicy::kNone);
  EXPECT_EQ(kv_evict_policy_from_string("cold-blocks"),
            KvEvictPolicy::kColdBlocks);
  EXPECT_EQ(kv_evict_policy_from_string("cold"), KvEvictPolicy::kColdBlocks);
  EXPECT_FALSE(kv_evict_policy_from_string("hot-blocks").has_value());

  const ParseResult r = parse(
      {"--op=batch", "--mode=continuous", "--seqs=4096,512",
       "--admit-policy=srf", "--kv-budget=37748736", "--preempt",
       "--kv-evict=cold-blocks", "--kv-block-bytes=4096", "--refetch-cost=4"});
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.options->batch_kv_evict, KvEvictPolicy::kColdBlocks);
  EXPECT_EQ(r.options->batch_kv_block_bytes, 4096u);
  EXPECT_EQ(r.options->batch_refetch_cost, 4u);
  // Defaults: resident preemption, line-granule blocks, modeled host link.
  const ParseResult d = parse({"--op=batch", "--mode=continuous",
                               "--admit-policy=fcfs", "--kv-budget=1048576",
                               "--preempt"});
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d.options->batch_kv_evict, KvEvictPolicy::kNone);
  EXPECT_EQ(d.options->batch_kv_block_bytes, 0u);
  EXPECT_EQ(d.options->batch_refetch_cost, 0u);
}

TEST(ParseCli, PagedEvictionFlagsCrossChecked) {
  // Eviction without preemption: nothing would ever be swapped out.
  const ParseResult no_pre =
      parse({"--op=batch", "--mode=continuous", "--admit-policy=fcfs",
             "--kv-budget=1048576", "--kv-evict=cold-blocks"});
  ASSERT_FALSE(no_pre.ok());
  EXPECT_NE(no_pre.error.find("--kv-evict"), std::string::npos);
  EXPECT_NE(no_pre.error.find("--preempt"), std::string::npos);
  // Eviction without a finite budget: no pressure to relieve.
  const ParseResult no_budget =
      parse({"--op=batch", "--mode=continuous", "--admit-policy=fcfs",
             "--preempt", "--kv-evict=cold-blocks"});
  ASSERT_FALSE(no_budget.ok());
  EXPECT_NE(no_budget.error.find("--kv-budget"), std::string::npos);
  // The paging knobs only exist under cold-blocks.
  EXPECT_FALSE(parse({"--op=batch", "--mode=continuous",
                      "--admit-policy=fcfs", "--kv-budget=1048576",
                      "--preempt", "--kv-block-bytes=4096"})
                   .ok());
  EXPECT_FALSE(parse({"--op=batch", "--mode=continuous",
                      "--admit-policy=fcfs", "--kv-budget=1048576",
                      "--preempt", "--refetch-cost=4"})
                   .ok());
  // Malformed values: non-line-multiple blocks, zero/garbage costs.
  EXPECT_FALSE(parse({"--kv-evict=lru"}).ok());
  EXPECT_FALSE(parse({"--kv-block-bytes=100"}).ok());
  EXPECT_FALSE(parse({"--kv-block-bytes=0"}).ok());
  EXPECT_FALSE(parse({"--refetch-cost=0"}).ok());
  EXPECT_FALSE(parse({"--refetch-cost=abc"}).ok());
}

TEST(ParseCli, KvShareFlagsParse) {
  const ParseResult r = parse(
      {"--op=batch", "--mode=continuous", "--seqs=512,512,256",
       "--kv-share=on", "--prefix-groups=0,0,1", "--prefix-tokens=128,128,64"});
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_TRUE(r.options->batch_kv_share);
  EXPECT_EQ(r.options->batch_prefix_groups,
            (std::vector<std::uint64_t>{0, 0, 1}));
  EXPECT_EQ(r.options->batch_prefix_tokens,
            (std::vector<std::uint64_t>{128, 128, 64}));
  // Broadcast + a 0-token private member.
  EXPECT_TRUE(parse({"--op=batch", "--mode=continuous", "--seqs=512,512,256",
                     "--kv-share=on", "--prefix-groups=0",
                     "--prefix-tokens=128,128,0"})
                  .ok());
  // Sharing without groups is valid (everything private, counters zero).
  const ParseResult plain =
      parse({"--op=batch", "--mode=continuous", "--kv-share=on"});
  ASSERT_TRUE(plain.ok()) << plain.error;
  EXPECT_TRUE(plain.options->batch_kv_share);
  // --kv-block-bytes gains a second consumer: the share granule.
  EXPECT_TRUE(parse({"--op=batch", "--mode=continuous", "--kv-share=on",
                     "--kv-block-bytes=4096"})
                  .ok());
  // Default is off.
  const ParseResult off = parse({"--op=batch", "--mode=continuous"});
  ASSERT_TRUE(off.ok());
  EXPECT_FALSE(off.options->batch_kv_share);
}

TEST(ParseCli, KvShareFlagsCrossChecked) {
  // Sharing is a serving-time construct: continuous only.
  const ParseResult barrier =
      parse({"--op=batch", "--mode=coscheduled", "--kv-share=on"});
  ASSERT_FALSE(barrier.ok());
  EXPECT_NE(barrier.error.find("--kv-share"), std::string::npos);
  EXPECT_NE(barrier.error.find("continuous"), std::string::npos);
  // Prefix identity without sharing is dead configuration.
  EXPECT_FALSE(parse({"--op=batch", "--mode=continuous",
                      "--prefix-groups=0,0"})
                   .ok());
  EXPECT_FALSE(parse({"--op=batch", "--mode=continuous",
                      "--prefix-tokens=64"})
                   .ok());
  // The two prefix flags require each other.
  EXPECT_FALSE(parse({"--op=batch", "--mode=continuous", "--kv-share=on",
                      "--prefix-groups=0,0"})
                   .ok());
  EXPECT_FALSE(parse({"--op=batch", "--mode=continuous", "--kv-share=on",
                      "--prefix-tokens=64,64"})
                   .ok());
  // Arity follows the batch size; malformed values are rejected.
  EXPECT_FALSE(parse({"--op=batch", "--mode=continuous", "--seqs=64,128",
                      "--kv-share=on", "--prefix-groups=0,0,0",
                      "--prefix-tokens=16"})
                   .ok());
  EXPECT_FALSE(parse({"--kv-share=maybe"}).ok());
  EXPECT_FALSE(parse({"--prefix-groups=a,b"}).ok());
  // Group ids must leave room for the no-group sentinel.
  EXPECT_FALSE(parse({"--op=batch", "--mode=continuous", "--kv-share=on",
                      "--prefix-groups=4294967295", "--prefix-tokens=16"})
                   .ok());
  // --kv-block-bytes still needs at least one consumer.
  EXPECT_FALSE(parse({"--op=batch", "--mode=continuous",
                      "--kv-block-bytes=4096"})
                   .ok());
}

TEST(ParseCli, ArrivalsAndStepsArityChecked) {
  // 3 entries vs 2 requests: rejected with both numbers in the message.
  const ParseResult r = parse({"--op=batch", "--mode=continuous",
                               "--requests=2", "--arrivals=0,1,2"});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error.find("3 entries"), std::string::npos);
  EXPECT_NE(r.error.find("2 requests"), std::string::npos);
  EXPECT_FALSE(parse({"--op=batch", "--requests=2", "--steps=1,2,3"}).ok());
  // Arity follows --seqs when it overrides --requests, and one entry
  // broadcasts.
  EXPECT_TRUE(parse({"--op=batch", "--mode=continuous", "--seqs=64,128,256",
                     "--arrivals=0,5,9", "--steps=4"})
                  .ok());
  EXPECT_TRUE(
      parse({"--op=batch", "--mode=continuous", "--requests=8", "--arrivals=5"})
          .ok());
}

// ------------------------------------------------------------ diagnostics --

TEST(ParseCli, UnknownFlagIsAnError) {
  const ParseResult r = parse({"--frobnicate=1"});
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("frobnicate"), std::string::npos);
}

TEST(ParseCli, MalformedNumbersAreErrors) {
  EXPECT_FALSE(parse({"--seq=12abc"}).ok());
  EXPECT_FALSE(parse({"--seq=0"}).ok());
  EXPECT_FALSE(parse({"--cores=x"}).ok());
  EXPECT_FALSE(parse({"--bypass-keep-p=1.5"}).ok());
}

TEST(ParseCli, PositionalArgumentsRejected) {
  EXPECT_FALSE(parse({"llama3"}).ok());
}

TEST(ParseCli, InvalidGeometryCaughtByValidate) {
  // Three slices: not a power of two -> SimConfig::validate rejects.
  const ParseResult r = parse({"--slices=3"});
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("invalid configuration"), std::string::npos);
}

TEST(ParseCli, UsageMentionsEveryFlag) {
  const std::string usage = cli_usage();
  for (const char* flag :
       {"--model", "--op", "--seq", "--policy", "--resp-arb", "--dispatch",
        "--cores", "--llc-mb", "--slices", "--mshr-entries", "--mshr-targets",
        "--repl", "--bypass", "--seed", "--csv", "--json", "--counters",
        "--energy", "--verbose", "--requests", "--layers", "--seqs",
        "--no-gemv", "--mode", "--interleave", "--req-dispatch",
        "--arrivals", "--steps", "--admit-policy", "--kv-budget", "--preempt",
        "--kv-evict", "--kv-block-bytes", "--refetch-cost", "--traffic",
        "--traffic-seed", "--traffic-gap", "--traffic-seq",
        "--traffic-seq-dist", "--traffic-sigma", "--traffic-steps",
        "--traffic-groups", "--traffic-zipf", "--traffic-share-pct",
        "--trace-out", "--trace-in", "--digest"}) {
    EXPECT_NE(usage.find(flag), std::string::npos) << flag;
  }
}

// ------------------------------------------------------- open-loop flags --

TEST(OptionVocabulary, TrafficEnums) {
  EXPECT_EQ(traffic_process_from_string("poisson"), TrafficProcess::kPoisson);
  EXPECT_EQ(traffic_process_from_string("bursty"), TrafficProcess::kBursty);
  EXPECT_EQ(traffic_process_from_string("diurnal"), TrafficProcess::kDiurnal);
  EXPECT_FALSE(traffic_process_from_string("uniform").has_value());
  EXPECT_EQ(traffic_dist_from_string("uniform"), TrafficDist::kUniform);
  EXPECT_EQ(traffic_dist_from_string("lognormal"), TrafficDist::kLognormal);
  EXPECT_EQ(traffic_dist_from_string("LN"), TrafficDist::kLognormal);
  EXPECT_FALSE(traffic_dist_from_string("poisson").has_value());
}

TEST(ParseCli, TrafficFlagsParse) {
  const ParseResult r = parse(
      {"--op=batch", "--mode=continuous", "--traffic=bursty", "--requests=16",
       "--traffic-seed=9", "--traffic-gap=40000", "--traffic-seq=32,320",
       "--traffic-seq-dist=lognormal", "--traffic-sigma=0.7",
       "--traffic-steps=2,5", "--traffic-groups=3", "--traffic-zipf=1.5",
       "--traffic-share-pct=60", "--kv-share=on"});
  ASSERT_TRUE(r.ok()) << r.error;
  const CliOptions& opt = *r.options;
  EXPECT_TRUE(opt.traffic);
  EXPECT_EQ(opt.traffic_process, TrafficProcess::kBursty);
  EXPECT_EQ(opt.batch_requests, 16u);
  EXPECT_EQ(opt.traffic_seed, 9u);
  EXPECT_EQ(opt.traffic_gap, 40'000u);
  EXPECT_EQ(opt.traffic_seq_min, 32u);
  EXPECT_EQ(opt.traffic_seq_max, 320u);
  EXPECT_EQ(opt.traffic_seq_dist, TrafficDist::kLognormal);
  EXPECT_DOUBLE_EQ(opt.traffic_sigma, 0.7);
  EXPECT_EQ(opt.traffic_steps_min, 2u);
  EXPECT_EQ(opt.traffic_steps_max, 5u);
  EXPECT_EQ(opt.traffic_groups, 3u);
  EXPECT_DOUBLE_EQ(opt.traffic_zipf, 1.5);
  EXPECT_EQ(opt.traffic_share_pct, 60u);
}

TEST(ParseCli, TrafficFlagsCrossChecked) {
  // --traffic needs the continuous batch engine.
  EXPECT_FALSE(parse({"--traffic=poisson"}).ok());
  EXPECT_FALSE(parse({"--op=batch", "--traffic=poisson"}).ok());
  // A --traffic-* knob without --traffic names itself in the error.
  const ParseResult knob =
      parse({"--op=batch", "--mode=continuous", "--traffic-gap=100"});
  ASSERT_FALSE(knob.ok());
  EXPECT_NE(knob.error.find("--traffic-gap"), std::string::npos);
  EXPECT_NE(knob.error.find("requires --traffic"), std::string::npos);
  // The generator replaces the hand-built per-request flags.
  EXPECT_FALSE(parse({"--op=batch", "--mode=continuous", "--traffic=poisson",
                      "--seqs=64,128"})
                   .ok());
  EXPECT_FALSE(parse({"--op=batch", "--mode=continuous", "--traffic=poisson",
                      "--arrivals=0,5"})
                   .ok());
  EXPECT_FALSE(parse({"--op=batch", "--mode=continuous", "--traffic=poisson",
                      "--steps=2"})
                   .ok());
  // Malformed values.
  EXPECT_FALSE(parse({"--op=batch", "--mode=continuous", "--traffic=waves"})
                   .ok());
  EXPECT_FALSE(parse({"--op=batch", "--mode=continuous", "--traffic=poisson",
                      "--traffic-gap=0"})
                   .ok());
  EXPECT_FALSE(parse({"--op=batch", "--mode=continuous", "--traffic=poisson",
                      "--traffic-seq=512,64"})
                   .ok());
  EXPECT_FALSE(parse({"--op=batch", "--mode=continuous", "--traffic=poisson",
                      "--traffic-seq=64"})
                   .ok());
  EXPECT_FALSE(parse({"--op=batch", "--mode=continuous", "--traffic=poisson",
                      "--traffic-share-pct=101"})
                   .ok());
}

TEST(ParseCli, TraceFlagsCrossChecked) {
  EXPECT_TRUE(parse({"--op=batch", "--mode=continuous", "--traffic=poisson",
                     "--trace-out=t.trace"})
                  .ok());
  EXPECT_TRUE(
      parse({"--op=batch", "--mode=continuous", "--trace-in=t.trace"}).ok());
  // Replay and generation are mutually exclusive workload sources.
  const ParseResult both = parse({"--op=batch", "--mode=continuous",
                                  "--traffic=poisson", "--trace-in=t.trace"});
  ASSERT_FALSE(both.ok());
  EXPECT_NE(both.error.find("conflict"), std::string::npos);
  // Replay replaces the per-request flags and needs the continuous engine.
  EXPECT_FALSE(parse({"--trace-in=t.trace"}).ok());
  EXPECT_FALSE(parse({"--op=batch", "--mode=continuous", "--trace-in=t.trace",
                      "--seqs=64,128"})
                   .ok());
  EXPECT_FALSE(parse({"--trace-out=t.trace"}).ok());
  // --digest is defined over batch runs only.
  EXPECT_TRUE(parse({"--op=batch", "--digest"}).ok());
  EXPECT_FALSE(parse({"--digest"}).ok());
}

}  // namespace
}  // namespace llamcat
