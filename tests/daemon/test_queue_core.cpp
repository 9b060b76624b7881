// PriorityQueueCore: the deterministic second-level scheduling policy.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <vector>

#include "common/rng.hpp"
#include "daemon/queue_core.hpp"

namespace qcenv::daemon {
namespace {

using common::kSecond;

QueuePolicy batched_policy(std::uint64_t batch = 100) {
  QueuePolicy policy;
  policy.class_priority = true;
  policy.non_production_batch_shots = batch;
  policy.age_to_boost = 0;
  return policy;
}

TEST(QueueCore, FifoWithinClass) {
  PriorityQueueCore core(batched_policy(0));
  core.enqueue(1, JobClass::kProduction, 10, 0);
  core.enqueue(2, JobClass::kProduction, 10, 1);
  core.enqueue(3, JobClass::kProduction, 10, 2);
  EXPECT_EQ(core.next_batch(3)->job_id, 1u);
  EXPECT_EQ(core.next_batch(3)->job_id, 2u);
  EXPECT_EQ(core.next_batch(3)->job_id, 3u);
}

TEST(QueueCore, ClassPriorityOrdersAcrossClasses) {
  PriorityQueueCore core(batched_policy(0));
  core.enqueue(1, JobClass::kDevelopment, 10, 0);
  core.enqueue(2, JobClass::kTest, 10, 1);
  core.enqueue(3, JobClass::kProduction, 10, 2);
  EXPECT_EQ(core.next_batch(3)->job_id, 3u);  // production first
  EXPECT_EQ(core.next_batch(3)->job_id, 2u);  // then test
  EXPECT_EQ(core.next_batch(3)->job_id, 1u);  // then development
}

TEST(QueueCore, FifoBaselineIgnoresClasses) {
  QueuePolicy policy = batched_policy(0);
  policy.class_priority = false;
  PriorityQueueCore core(policy);
  core.enqueue(1, JobClass::kDevelopment, 10, 0);
  core.enqueue(2, JobClass::kProduction, 10, 1);
  EXPECT_EQ(core.next_batch(2)->job_id, 1u);  // strict arrival order
}

TEST(QueueCore, ProductionJobsDispatchWholeShots) {
  PriorityQueueCore core(batched_policy(50));
  core.enqueue(1, JobClass::kProduction, 1000, 0);
  const auto batch = core.next_batch(0);
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->shots, 1000u);
  EXPECT_TRUE(batch->final_batch);
}

TEST(QueueCore, NonProductionJobsAreChopped) {
  PriorityQueueCore core(batched_policy(50));
  core.enqueue(1, JobClass::kDevelopment, 120, 0);
  auto batch1 = core.next_batch(0);
  ASSERT_TRUE(batch1.has_value());
  EXPECT_EQ(batch1->shots, 50u);
  EXPECT_FALSE(batch1->final_batch);
  core.batch_done(*batch1);
  auto batch2 = core.next_batch(1);
  EXPECT_EQ(batch2->shots, 50u);
  core.batch_done(*batch2);
  auto batch3 = core.next_batch(2);
  EXPECT_EQ(batch3->shots, 20u);
  EXPECT_TRUE(batch3->final_batch);
  core.batch_done(*batch3);
  EXPECT_EQ(core.depth(), 0u);
}

TEST(QueueCore, ProductionArrivalWaitsAtMostOneBatch) {
  // The paper's key property: a production job arriving mid-development-job
  // preempts at the batch boundary, not at job completion.
  PriorityQueueCore core(batched_policy(10));
  core.enqueue(1, JobClass::kDevelopment, 100, 0);
  auto dev_batch = core.next_batch(0);
  ASSERT_EQ(dev_batch->shots, 10u);
  // Production arrives while the dev batch is in flight.
  core.enqueue(2, JobClass::kProduction, 500, 1);
  core.batch_done(*dev_batch);
  // Next dispatch must be the production job, not the dev remainder.
  auto next = core.next_batch(2);
  EXPECT_EQ(next->job_id, 2u);
  EXPECT_EQ(next->shots, 500u);
  core.batch_done(*next);
  // Dev job resumes afterwards.
  EXPECT_EQ(core.next_batch(3)->job_id, 1u);
}

TEST(QueueCore, RemainderKeepsPositionWithinClass) {
  PriorityQueueCore core(batched_policy(10));
  core.enqueue(1, JobClass::kDevelopment, 30, 0);
  core.enqueue(2, JobClass::kDevelopment, 30, 1);
  auto batch = core.next_batch(2);
  EXPECT_EQ(batch->job_id, 1u);
  core.batch_done(*batch);
  // Job 1's remainder still precedes job 2 (contiguous batches).
  EXPECT_EQ(core.next_batch(3)->job_id, 1u);
}

TEST(QueueCore, AgingPromotesStarvedJobs) {
  QueuePolicy policy = batched_policy(0);
  policy.age_to_boost = 60 * kSecond;
  PriorityQueueCore core(policy);
  core.enqueue(1, JobClass::kDevelopment, 10, 0);
  core.enqueue(2, JobClass::kProduction, 10, 100 * kSecond);
  // At t=130s the dev job has waited 130s > 2 boosts worth: rank 2-2=0,
  // equal to production; FIFO seq then favours the dev job.
  EXPECT_EQ(core.next_batch(130 * kSecond)->job_id, 1u);
}

TEST(QueueCore, RemoveCancelsPending) {
  PriorityQueueCore core(batched_policy(0));
  core.enqueue(1, JobClass::kTest, 10, 0);
  EXPECT_TRUE(core.pending(1));
  EXPECT_TRUE(core.remove(1));
  EXPECT_FALSE(core.remove(1));
  EXPECT_FALSE(core.next_batch(1).has_value());
}

TEST(QueueCore, DepthAccounting) {
  PriorityQueueCore core(batched_policy(10));
  core.enqueue(1, JobClass::kProduction, 10, 0);
  core.enqueue(2, JobClass::kDevelopment, 10, 0);
  core.enqueue(3, JobClass::kDevelopment, 10, 0);
  EXPECT_EQ(core.depth(), 3u);
  EXPECT_EQ(core.depth_of(JobClass::kDevelopment), 2u);
  EXPECT_EQ(core.depth_of(JobClass::kProduction), 1u);
  EXPECT_EQ(core.depth_of(JobClass::kTest), 0u);
  const auto order = core.snapshot(0);
  EXPECT_EQ(order.front(), 1u);
}

TEST(QueueCore, EmptyQueueReturnsNothing) {
  PriorityQueueCore core(batched_policy());
  EXPECT_FALSE(core.next_batch(0).has_value());
}


TEST(QueueCore, ShortestFirstWithinClass) {
  // Pattern-aware ordering (the paper's §3.5 "expected time running on
  // the QC hardware" hint): within a class, less remaining work first.
  QueuePolicy policy = batched_policy(0);
  policy.shortest_first_within_class = true;
  PriorityQueueCore core(policy);
  core.enqueue(1, JobClass::kTest, 500, 0);
  core.enqueue(2, JobClass::kTest, 50, 1);
  core.enqueue(3, JobClass::kProduction, 900, 2);
  core.enqueue(4, JobClass::kTest, 200, 3);
  // Production still first (class priority beats SJF) ...
  EXPECT_EQ(core.next_batch(4)->job_id, 3u);
  // ... then tests by ascending remaining shots.
  EXPECT_EQ(core.next_batch(4)->job_id, 2u);
  EXPECT_EQ(core.next_batch(4)->job_id, 4u);
  EXPECT_EQ(core.next_batch(4)->job_id, 1u);
}

TEST(QueueCore, RandomizedShotConservation) {
  // Property: across any interleaving of enqueue/next_batch/batch_done,
  // dispatched shots per job sum exactly to the enqueued total.
  common::Rng rng(77);
  PriorityQueueCore core(batched_policy(17));
  std::map<std::uint64_t, std::uint64_t> requested, dispatched;
  std::vector<Batch> in_flight;
  std::uint64_t next_id = 1;
  for (int step = 0; step < 3000; ++step) {
    const double roll = rng.uniform();
    if (roll < 0.3) {
      const auto shots =
          static_cast<std::uint64_t>(rng.uniform_int(1, 300));
      const auto cls = static_cast<JobClass>(rng.uniform_int(0, 2));
      requested[next_id] = shots;
      core.enqueue(next_id, cls, shots, step);
      ++next_id;
    } else if (roll < 0.7) {
      auto batch = core.next_batch(step);
      if (batch.has_value()) in_flight.push_back(*batch);
    } else if (!in_flight.empty()) {
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(in_flight.size()) - 1));
      const Batch batch = in_flight[pick];
      in_flight.erase(in_flight.begin() + static_cast<std::ptrdiff_t>(pick));
      dispatched[batch.job_id] += batch.shots;
      core.batch_done(batch);
    }
  }
  // Drain everything still queued or in flight.
  while (true) {
    auto batch = core.next_batch(100000);
    if (!batch.has_value()) break;
    dispatched[batch->job_id] += batch->shots;
    core.batch_done(*batch);
  }
  for (const Batch& batch : in_flight) {
    dispatched[batch.job_id] += batch.shots;
    core.batch_done(batch);
  }
  while (true) {
    auto batch = core.next_batch(200000);
    if (!batch.has_value()) break;
    dispatched[batch->job_id] += batch->shots;
    core.batch_done(*batch);
  }
  EXPECT_EQ(core.depth(), 0u);
  for (const auto& [job, shots] : requested) {
    EXPECT_EQ(dispatched[job], shots) << "job " << job;
  }
}

// Differential order check: after every step of a seeded random mix of
// enqueue / take / batch_done / batch_failed / remove, peek_head and
// snapshot_heads must agree with a reference order built here by a plain
// sort with the documented comparator — (effective rank asc, hook desc,
// remaining shots asc when shortest-first, seq asc). Covers every policy
// combination, with and without a job-dependent hook, enqueue times that
// straddle the aging boundary and a random eligibility predicate.
constexpr common::DurationNs kAgeStep = 100;  // age_to_boost when aging is on

struct ModelEntry {
  JobClass cls;
  std::uint64_t remaining;
  common::TimeNs enqueued;
  std::uint64_t seq;
};

void check_against_reference(const QueuePolicy& policy, bool with_hook,
                             std::uint64_t seed) {
  constexpr std::uint64_t kBatch = 50;
  // Few sizes, so shortest-first meets ties and falls through to seq.
  constexpr std::array<std::uint64_t, 4> kShots = {10, 50, 120, 300};
  const auto hook = [](std::uint64_t job_id, common::TimeNs now) {
    // Few distinct values, so later keys break many ties.
    return static_cast<double>((job_id * 2654435761u >> 5) % 3 +
                               static_cast<std::uint64_t>(now / 70) % 2);
  };
  PriorityQueueCore core(policy);
  if (with_hook) core.set_priority_hook(hook);
  common::Rng rng(seed);
  std::map<std::uint64_t, ModelEntry> pending, in_flight;
  std::vector<Batch> batches;
  std::uint64_t next_id = 1;
  std::uint64_t next_seq = 0;
  common::TimeNs now = 0;

  const auto reference = [&](common::TimeNs at) {
    std::vector<PriorityQueueCore::Head> heads;
    for (const auto& [id, entry] : pending) {
      PriorityQueueCore::Head head;
      head.job_id = id;
      head.cls = entry.cls;
      head.rank = 0;
      if (policy.class_priority) {
        const int boosts =
            policy.age_to_boost > 0
                ? static_cast<int>((at - entry.enqueued) / policy.age_to_boost)
                : 0;
        head.rank = std::max(0, class_rank(entry.cls) - boosts);
      }
      head.has_hook = with_hook;
      head.hook = with_hook ? hook(id, at) : 0.0;
      head.remaining_shots = entry.remaining;
      head.seq = entry.seq;
      heads.push_back(head);
    }
    std::sort(heads.begin(), heads.end(),
              [&](const PriorityQueueCore::Head& a,
                  const PriorityQueueCore::Head& b) {
                if (a.rank != b.rank) return a.rank < b.rank;
                if (with_hook && a.hook != b.hook) return a.hook > b.hook;
                if (policy.shortest_first_within_class &&
                    a.remaining_shots != b.remaining_shots) {
                  return a.remaining_shots < b.remaining_shots;
                }
                return a.seq < b.seq;
              });
    return heads;
  };
  const auto same = [](const PriorityQueueCore::Head& a,
                       const PriorityQueueCore::Head& b) {
    return a.job_id == b.job_id && a.cls == b.cls && a.rank == b.rank &&
           a.has_hook == b.has_hook && a.hook == b.hook &&
           a.remaining_shots == b.remaining_shots && a.seq == b.seq;
  };
  const auto pick = [&](const auto& map) {
    auto it = map.begin();
    std::advance(it, rng.uniform_int(
                         0, static_cast<std::int64_t>(map.size()) - 1));
    return it->first;
  };

  for (int step = 0; step < 400; ++step) {
    now += rng.uniform_int(0, 12);
    const double roll = rng.uniform();
    if (roll < 0.35 || pending.empty()) {
      const JobClass cls = static_cast<JobClass>(rng.uniform_int(0, 2));
      const std::uint64_t shots =
          kShots[static_cast<std::size_t>(rng.uniform_int(0, 3))];
      // Back-dated arrivals land on both sides of one and two boosts.
      const common::TimeNs enqueued =
          std::max<common::TimeNs>(0, now - rng.uniform_int(0, 3 * kAgeStep));
      next_seq += static_cast<std::uint64_t>(rng.uniform_int(1, 3));
      core.enqueue(next_id, cls, shots, enqueued, next_seq);
      pending[next_id++] = {cls, shots, enqueued, next_seq};
    } else if (roll < 0.6) {
      // Half the takes serve the peeked head, as a dispatch lane does.
      std::uint64_t id = pick(pending);
      if (rng.bernoulli(0.5)) {
        const auto head = core.peek_head(now, [](std::uint64_t) {
          return true;
        });
        ASSERT_TRUE(head.has_value());
        id = head->job_id;
      }
      const auto batch = core.take(id);
      ASSERT_TRUE(batch.has_value());
      const ModelEntry entry = pending.at(id);
      const bool chopped =
          policy.non_production_batch_shots > 0 &&
          entry.cls != JobClass::kProduction;
      EXPECT_EQ(batch->shots,
                chopped ? std::min(entry.remaining, kBatch) : entry.remaining);
      EXPECT_EQ(batch->final_batch, batch->shots == entry.remaining);
      pending.erase(id);
      in_flight[id] = entry;
      batches.push_back(*batch);
    } else if (roll < 0.8 && !batches.empty()) {
      const auto at = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(batches.size()) - 1));
      const Batch batch = batches[at];
      batches.erase(batches.begin() + static_cast<std::ptrdiff_t>(at));
      ModelEntry entry = in_flight.at(batch.job_id);
      in_flight.erase(batch.job_id);
      if (rng.bernoulli(0.25)) {
        core.batch_failed(batch);
        pending[batch.job_id] = entry;
      } else {
        core.batch_done(batch);
        entry.remaining -= batch.shots;
        if (entry.remaining > 0) pending[batch.job_id] = entry;
      }
    } else {
      const std::uint64_t id = pick(pending);
      EXPECT_TRUE(core.remove(id));
      EXPECT_FALSE(core.remove(id));
      pending.erase(id);
    }

    const auto expected = reference(now);
    const auto heads = core.snapshot_heads(now);
    ASSERT_EQ(heads.size(), expected.size()) << "step " << step;
    for (std::size_t i = 0; i < heads.size(); ++i) {
      ASSERT_TRUE(same(heads[i], expected[i]))
          << "step " << step << " position " << i << ": job "
          << heads[i].job_id << " vs reference job " << expected[i].job_id;
    }
    std::vector<std::uint64_t> ids;
    for (const auto& head : expected) ids.push_back(head.job_id);
    ASSERT_EQ(core.snapshot(now), ids) << "step " << step;

    // A random predicate: sometimes nothing, sometimes everything is
    // eligible, usually a salted subset.
    const auto salt = static_cast<std::uint64_t>(rng.uniform_int(0, 6));
    const auto eligible = [salt](std::uint64_t job_id) {
      return salt == 0 ? false
                       : salt == 1 || (job_id * 40503u + salt) % 3 != 0;
    };
    const PriorityQueueCore::Head* first = nullptr;
    for (const auto& head : expected) {
      if (eligible(head.job_id)) {
        first = &head;
        break;
      }
    }
    const auto peeked = core.peek_head(now, eligible);
    ASSERT_EQ(peeked.has_value(), first != nullptr) << "step " << step;
    if (first != nullptr) {
      ASSERT_TRUE(same(*peeked, *first))
          << "step " << step << ": peeked job " << peeked->job_id
          << " vs reference job " << first->job_id;
    }
  }
}

TEST(QueueCore, OrderMatchesReferenceSortUnderRandomOps) {
  std::uint64_t seed = 1300;
  for (const bool class_priority : {false, true}) {
    for (const bool shortest_first : {false, true}) {
      for (const common::DurationNs age : {common::DurationNs{0}, kAgeStep}) {
        for (const bool with_hook : {false, true}) {
          QueuePolicy policy;
          policy.class_priority = class_priority;
          policy.shortest_first_within_class = shortest_first;
          policy.age_to_boost = age;
          policy.non_production_batch_shots = 50;
          SCOPED_TRACE(testing::Message()
                       << "class_priority=" << class_priority
                       << " shortest_first=" << shortest_first
                       << " age_to_boost=" << age << " hook=" << with_hook);
          check_against_reference(policy, with_hook, ++seed);
          if (HasFatalFailure()) return;
        }
      }
    }
  }
}

TEST(QueueCore, ClassNames) {
  EXPECT_STREQ(to_string(JobClass::kProduction), "production");
  EXPECT_STREQ(to_string(JobClass::kTest), "test");
  EXPECT_STREQ(to_string(JobClass::kDevelopment), "development");
  EXPECT_LT(class_rank(JobClass::kProduction),
            class_rank(JobClass::kDevelopment));
}

}  // namespace
}  // namespace qcenv::daemon
