#include "common/deadline.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <thread>

#include "common/retry.h"
#include "common/status.h"

namespace qopt {
namespace {

TEST(DeadlineTest, DefaultIsUnboundedAndAlwaysOk) {
  const Deadline deadline;
  EXPECT_TRUE(deadline.unbounded());
  EXPECT_EQ(deadline.token(), nullptr);
  EXPECT_FALSE(deadline.Expired());
  EXPECT_FALSE(deadline.Cancelled());
  EXPECT_TRUE(deadline.Check().ok());
  EXPECT_EQ(deadline.RemainingMillis(),
            std::numeric_limits<double>::infinity());
}

TEST(DeadlineTest, ZeroBudgetIsImmediatelyExpired) {
  const Deadline deadline = Deadline::AfterMillis(0);
  EXPECT_TRUE(deadline.Expired());
  EXPECT_EQ(deadline.Check().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(deadline.RemainingMillis(), 0.0);
}

TEST(DeadlineTest, NegativeBudgetClampsToZero) {
  EXPECT_TRUE(Deadline::AfterMillis(-5).Expired());
}

TEST(DeadlineTest, FutureDeadlineIsOkUntilItPasses) {
  const Deadline deadline = Deadline::AfterMillis(1e7);
  EXPECT_FALSE(deadline.unbounded());
  EXPECT_FALSE(deadline.Expired());
  EXPECT_TRUE(deadline.Check().ok());
  EXPECT_GT(deadline.RemainingMillis(), 0.0);
}

TEST(DeadlineTest, ShortDeadlineActuallyExpires) {
  const Deadline deadline = Deadline::AfterMillis(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(deadline.Expired());
  EXPECT_EQ(deadline.Check().code(), StatusCode::kDeadlineExceeded);
}

TEST(DeadlineTest, WithBudgetTakesTheEarlierInstant) {
  const Deadline loose = Deadline::AfterMillis(1e7);
  const Deadline clamped = loose.WithBudgetMillis(1e3);
  EXPECT_LT(clamped.when(), loose.when());
  // Clamping cannot extend an already-tight deadline.
  const Deadline tight = Deadline::AfterMillis(1);
  const Deadline not_extended = tight.WithBudgetMillis(1e7);
  EXPECT_EQ(not_extended.when(), tight.when());
}

TEST(DeadlineTest, WithBudgetBoundsAnUnboundedDeadline) {
  const Deadline bounded = Deadline().WithBudgetMillis(50);
  EXPECT_FALSE(bounded.unbounded());
  EXPECT_LE(bounded.RemainingMillis(), 50.0);
}

TEST(DeadlineTest, WithBudgetKeepsTheToken) {
  CancelToken token;
  const Deadline deadline =
      Deadline::AfterMillis(1e7).WithToken(&token).WithBudgetMillis(1e3);
  EXPECT_EQ(deadline.token(), &token);
}

TEST(CancelTokenTest, CancellationWinsOverExpiry) {
  CancelToken token;
  token.Cancel();
  // Both tripped: the caller's explicit cancel is the more specific verdict.
  const Deadline deadline = Deadline::AfterMillis(0).WithToken(&token);
  EXPECT_EQ(deadline.Check().code(), StatusCode::kCancelled);
}

TEST(CancelTokenTest, ResetReArmsTheToken) {
  CancelToken token;
  const Deadline deadline = Deadline().WithToken(&token);
  token.Cancel();
  EXPECT_EQ(deadline.Check().code(), StatusCode::kCancelled);
  token.Reset();
  EXPECT_TRUE(deadline.Check().ok());
}

TEST(CancelTokenTest, LinkedTokenObservesTheParent) {
  CancelToken parent;
  CancelToken child(&parent);
  EXPECT_FALSE(child.cancelled());
  parent.Cancel();
  // The parent's cancel is visible through the child with no forwarding.
  EXPECT_TRUE(child.cancelled());
  const Deadline deadline = Deadline().WithToken(&child);
  EXPECT_EQ(deadline.Check().code(), StatusCode::kCancelled);
}

TEST(CancelTokenTest, LinkedTokenCancelDoesNotPropagateUpward) {
  CancelToken parent;
  CancelToken child(&parent);
  child.Cancel();
  EXPECT_TRUE(child.cancelled());
  EXPECT_FALSE(parent.cancelled());
  // Reset re-arms only the child's own flag; a fired parent still shows
  // through afterwards.
  child.Reset();
  EXPECT_FALSE(child.cancelled());
  parent.Cancel();
  EXPECT_TRUE(child.cancelled());
}

TEST(StopwatchTest, ElapsedIsMonotonic) {
  Stopwatch watch;
  const double first = watch.ElapsedMillis();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const double second = watch.ElapsedMillis();
  EXPECT_GE(first, 0.0);
  EXPECT_GT(second, first);
  watch.Restart();
  EXPECT_LT(watch.ElapsedMillis(), second);
}

TEST(RetryPolicyTest, BackoffDoublesUpToTheCapWithinJitterBounds) {
  RetryPolicy policy;
  policy.initial_backoff_ms = 100.0;
  policy.seed = 42;
  RetryPolicy unit = policy;  // same jitter stream, a 1 ms base
  unit.initial_backoff_ms = 1.0;
  // Nominal waits 100, 200, 400, 800, then the 1 000 ms cap.
  const double nominal[] = {100.0, 200.0, 400.0, 800.0, 1000.0, 1000.0};
  for (int attempt = 1; attempt <= 6; ++attempt) {
    const double expected = nominal[attempt - 1];
    const double wait = BackoffMillis(policy, attempt);
    EXPECT_GE(wait, 0.5 * expected) << "attempt " << attempt;
    EXPECT_LE(wait, expected) << "attempt " << attempt;
    // Both waits carry the jitter of (seed, attempt), and the 1 ms base
    // (nominal 2^(attempt-1) ms) stays under the cap, so their ratio is
    // the nominal curve's: exact doubling, then the cap.
    EXPECT_NEAR(wait / BackoffMillis(unit, attempt),
                expected / std::pow(2.0, attempt - 1), 1e-9)
        << "attempt " << attempt;
  }
}

TEST(RetryPolicyTest, BackoffIsDeterministicPerSeedAndAttempt) {
  RetryPolicy policy;
  policy.initial_backoff_ms = 50.0;
  policy.seed = 7;
  EXPECT_EQ(BackoffMillis(policy, 3), BackoffMillis(policy, 3));
  RetryPolicy other = policy;
  other.seed = 8;
  // Different jitter streams (equality would defeat the seeding).
  EXPECT_NE(BackoffMillis(policy, 3), BackoffMillis(other, 3));
}

TEST(RetryPolicyTest, BackoffIsCappedAtOneSecond) {
  RetryPolicy policy;
  policy.initial_backoff_ms = 600.0;  // 1 200 ms nominal at attempt 2
  for (int attempt = 2; attempt <= 40; ++attempt) {
    EXPECT_GE(BackoffMillis(policy, attempt), 500.0) << "attempt " << attempt;
    EXPECT_LE(BackoffMillis(policy, attempt), 1000.0) << "attempt " << attempt;
  }
}

TEST(RetryPolicyTest, ZeroInitialBackoffRetriesImmediately) {
  RetryPolicy policy;  // initial_backoff_ms = 0
  EXPECT_EQ(BackoffMillis(policy, 1), 0.0);
  EXPECT_EQ(BackoffMillis(policy, 4), 0.0);
}

TEST(RetryPolicyTest, OnlyUnavailableIsRetryable) {
  EXPECT_TRUE(IsRetryableStatus(StatusCode::kUnavailable));
  EXPECT_FALSE(IsRetryableStatus(StatusCode::kInvalidArgument));
  EXPECT_FALSE(IsRetryableStatus(StatusCode::kResourceExhausted));
  EXPECT_FALSE(IsRetryableStatus(StatusCode::kDeadlineExceeded));
  EXPECT_FALSE(IsRetryableStatus(StatusCode::kCancelled));
  EXPECT_FALSE(IsRetryableStatus(StatusCode::kInternal));
}

TEST(RetryPolicyTest, SleepWithDeadlineHonorsTheBudget) {
  // A sleep far longer than the deadline must bail out early and say so.
  const Deadline deadline = Deadline::AfterMillis(5);
  Stopwatch watch;
  EXPECT_FALSE(SleepWithDeadline(10000.0, deadline));
  EXPECT_LT(watch.ElapsedMillis(), 1000.0);
}

TEST(RetryPolicyTest, SleepWithDeadlineObservesCancellation) {
  CancelToken token;
  token.Cancel();
  EXPECT_FALSE(SleepWithDeadline(10000.0, Deadline().WithToken(&token)));
}

TEST(RetryPolicyTest, SleepCompletesUnderALooseDeadline) {
  EXPECT_TRUE(SleepWithDeadline(1.0, Deadline::AfterMillis(1e7)));
  EXPECT_TRUE(SleepWithDeadline(0.0, Deadline()));
}

}  // namespace
}  // namespace qopt
