#include "common/deadline.h"

#include <gtest/gtest.h>

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

TEST(RetryTest, OnlyUnavailableIsRetryable) {
  EXPECT_TRUE(IsRetryableStatus(StatusCode::kUnavailable));
  EXPECT_FALSE(IsRetryableStatus(StatusCode::kInvalidArgument));
  EXPECT_FALSE(IsRetryableStatus(StatusCode::kResourceExhausted));
  EXPECT_FALSE(IsRetryableStatus(StatusCode::kDeadlineExceeded));
  EXPECT_FALSE(IsRetryableStatus(StatusCode::kCancelled));
  EXPECT_FALSE(IsRetryableStatus(StatusCode::kInternal));
}

}  // namespace
}  // namespace qopt
