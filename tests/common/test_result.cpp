#include <gtest/gtest.h>

#include "common/result.hpp"

namespace qcenv::common {
namespace {

TEST(Result, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(0), 42);
}

TEST(Result, HoldsError) {
  Result<int> r = err::not_found("missing thing");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code(), ErrorCode::kNotFound);
  EXPECT_EQ(r.error().message(), "missing thing");
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(Result, ErrorToString) {
  const Error e = err::invalid_argument("shots must be positive");
  EXPECT_EQ(e.to_string(), "invalid_argument: shots must be positive");
}

TEST(Result, AndThenChainsOnSuccess) {
  Result<int> r(10);
  auto doubled = r.and_then([](int v) -> Result<int> { return v * 2; });
  ASSERT_TRUE(doubled.ok());
  EXPECT_EQ(doubled.value(), 20);
}

TEST(Result, AndThenForwardsError) {
  Result<int> r = err::timeout("slow");
  bool called = false;
  auto out = r.and_then([&](int v) -> Result<int> {
    called = true;
    return v;
  });
  EXPECT_FALSE(out.ok());
  EXPECT_FALSE(called);
  EXPECT_EQ(out.error().code(), ErrorCode::kTimeout);
}

TEST(Result, MapTransformsValue) {
  Result<int> r(5);
  auto text = r.map([](int v) { return std::to_string(v); });
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(text.value(), "5");
}

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.to_string(), "ok");
}

TEST(Status, CarriesError) {
  Status s = err::permission_denied("nope");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.error().code(), ErrorCode::kPermissionDenied);
}

TEST(Status, ReturnIfErrorMacro) {
  auto inner = []() -> Status { return err::io("disk gone"); };
  auto outer = [&]() -> Status {
    QCENV_RETURN_IF_ERROR(inner());
    return Status::ok_status();
  };
  EXPECT_EQ(outer().error().code(), ErrorCode::kIo);
}

TEST(Result, AssignOrReturnMacro) {
  auto half = [](int n) -> Result<int> {
    if (n % 2 != 0) return err::invalid_argument("odd");
    return n / 2;
  };
  auto quarter = [&](int n) -> Result<int> {
    QCENV_ASSIGN_OR_RETURN(const int h, half(n));
    int q = 0;
    QCENV_ASSIGN_OR_RETURN(q, half(h));
    return q;
  };
  EXPECT_EQ(quarter(8).value(), 2);
  EXPECT_EQ(quarter(6).error().message(), "odd");
  EXPECT_EQ(quarter(5).error().message(), "odd");
}

TEST(ErrorCodes, AllHaveNames) {
  EXPECT_STREQ(to_string(ErrorCode::kInvalidArgument), "invalid_argument");
  EXPECT_STREQ(to_string(ErrorCode::kResourceExhausted), "resource_exhausted");
  EXPECT_STREQ(to_string(ErrorCode::kUnavailable), "unavailable");
  EXPECT_STREQ(to_string(ErrorCode::kProtocol), "protocol");
}

}  // namespace
}  // namespace qcenv::common
