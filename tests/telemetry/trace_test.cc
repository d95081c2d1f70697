#include "telemetry/trace.h"

#include <gtest/gtest.h>

#include <string>

#include "telemetry/metrics.h"

namespace gemstone::telemetry {
namespace {

TEST(TraceBufferTest, RecordsInOrder) {
  TraceBuffer buffer(8);
  for (std::uint64_t i = 0; i < 3; ++i) {
    SpanRecord span;
    span.name = "s";
    span.start_ns = i;
    buffer.Record(span);
  }
  const auto spans = buffer.Snapshot();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].start_ns, 0u);
  EXPECT_EQ(spans[2].start_ns, 2u);
}

TEST(TraceBufferTest, RingWrapsOverwritingOldest) {
  TraceBuffer buffer(4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    SpanRecord span;
    span.name = "s";
    span.start_ns = i;
    buffer.Record(span);
  }
  EXPECT_EQ(buffer.size(), 4u);
  EXPECT_EQ(buffer.total_recorded(), 10u);
  const auto spans = buffer.Snapshot();
  ASSERT_EQ(spans.size(), 4u);
  // Oldest-to-newest: records 6, 7, 8, 9 survive.
  EXPECT_EQ(spans[0].start_ns, 6u);
  EXPECT_EQ(spans[3].start_ns, 9u);
}

TEST(TraceBufferTest, ClearEmptiesRetainedRecords) {
  for (const std::size_t capacity : {4u, 0u}) {  // 0 is clamped to 1 slot
    TraceBuffer buffer(capacity);
    SpanRecord span;
    span.name = "s";
    buffer.Record(span);
    EXPECT_EQ(buffer.size(), 1u);
    buffer.Clear();
    EXPECT_EQ(buffer.size(), 0u);
    EXPECT_TRUE(buffer.Snapshot().empty());
  }
}

TEST(ScopedSpanTest, NestedSpansRecordDepthAndCloseInnerFirst) {
  TraceBuffer::Global().Clear();
  {
    TELEM_SPAN("test.outer");
    {
      TELEM_SPAN("test.inner");
    }
  }
  const auto spans = TraceBuffer::Global().Snapshot();
  ASSERT_GE(spans.size(), 2u);
  const auto& inner = spans[spans.size() - 2];
  const auto& outer = spans[spans.size() - 1];
  EXPECT_STREQ(inner.name, "test.inner");
  EXPECT_EQ(inner.depth, 1u);
  EXPECT_STREQ(outer.name, "test.outer");
  EXPECT_EQ(outer.depth, 0u);
  // The outer span fully contains the inner span.
  EXPECT_LE(outer.start_ns, inner.start_ns);
  EXPECT_GE(outer.duration_ns, inner.duration_ns);
}

TEST(TraceContextTest, ScopeBindsNestsAndRestores) {
  EXPECT_EQ(CurrentTraceId(), 0u);
  {
    TraceContextScope outer(0x1111);
    EXPECT_EQ(CurrentTraceId(), 0x1111u);
    {
      TraceContextScope inner(0x2222);
      EXPECT_EQ(CurrentTraceId(), 0x2222u);
    }
    EXPECT_EQ(CurrentTraceId(), 0x1111u);  // nesting restores, not clears
  }
  EXPECT_EQ(CurrentTraceId(), 0u);
}

TEST(TraceContextTest, SpansRecordedInScopeCarryTheTraceId) {
  TraceBuffer::Global().Clear();
  {
    TraceContextScope scope(0xabcd);
    TELEM_SPAN("test.traced");
  }
  {
    TELEM_SPAN("test.untraced");
  }
  const auto spans = TraceBuffer::Global().Snapshot();
  ASSERT_GE(spans.size(), 2u);
  EXPECT_EQ(spans[spans.size() - 2].trace_id, 0xabcdu);
  EXPECT_EQ(spans[spans.size() - 1].trace_id, 0u);
}

TEST(ScopedSpanTest, SpanFeedsRegistryHistogram) {
  Histogram* histogram =
      MetricsRegistry::Global().GetHistogram("span.test.timed");
  const std::uint64_t before = histogram->count();
  {
    TELEM_SPAN("test.timed");
  }
  EXPECT_EQ(histogram->count(), before + 1);
}

TEST(ScopedSpanTest, SiblingSpansShareDepth) {
  TraceBuffer::Global().Clear();
  {
    TELEM_SPAN("test.parent");
    {
      TELEM_SPAN("test.first");
    }
    {
      TELEM_SPAN("test.second");
    }
  }
  const auto spans = TraceBuffer::Global().Snapshot();
  ASSERT_GE(spans.size(), 3u);
  const auto& first = spans[spans.size() - 3];
  const auto& second = spans[spans.size() - 2];
  EXPECT_STREQ(first.name, "test.first");
  EXPECT_STREQ(second.name, "test.second");
  EXPECT_EQ(first.depth, 1u);
  EXPECT_EQ(second.depth, 1u);
}

}  // namespace
}  // namespace gemstone::telemetry
