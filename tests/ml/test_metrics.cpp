#include "locble/ml/metrics.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace locble::ml {
namespace {

TEST(MetricsTest, PerfectPrediction) {
    const std::vector<int> y{0, 1, 2, 0, 1, 2};
    const auto r = evaluate_classification(y, y);
    EXPECT_DOUBLE_EQ(r.accuracy, 1.0);
    EXPECT_DOUBLE_EQ(r.macro_precision, 1.0);
    EXPECT_DOUBLE_EQ(r.macro_recall, 1.0);
    EXPECT_DOUBLE_EQ(r.macro_f1, 1.0);
}

TEST(MetricsTest, ConfusionMatrixLayout) {
    // truth 0 predicted as 1 -> confusion[0][1].
    const std::vector<int> truth{0, 0, 1};
    const std::vector<int> pred{1, 0, 1};
    const auto r = evaluate_classification(truth, pred);
    EXPECT_EQ(r.confusion[0][1], 1u);
    EXPECT_EQ(r.confusion[0][0], 1u);
    EXPECT_EQ(r.confusion[1][1], 1u);
    EXPECT_NEAR(r.accuracy, 2.0 / 3.0, 1e-12);
}

TEST(MetricsTest, PrecisionRecallAsymmetric) {
    // Class 1: 1 TP, 1 FP, 0 FN -> precision 0.5, recall 1.0
    const std::vector<int> truth{1, 0, 0};
    const std::vector<int> pred{1, 1, 0};
    const auto r = evaluate_classification(truth, pred);
    EXPECT_DOUBLE_EQ(r.precision[1], 0.5);
    EXPECT_DOUBLE_EQ(r.recall[1], 1.0);
    EXPECT_NEAR(r.f1[1], 2.0 / 3.0, 1e-12);
}

TEST(MetricsTest, AbsentPredictedClassZeroPrecision) {
    // Class 1 never predicted.
    const std::vector<int> truth{0, 1};
    const std::vector<int> pred{0, 0};
    const auto r = evaluate_classification(truth, pred);
    EXPECT_DOUBLE_EQ(r.precision[1], 0.0);
    EXPECT_DOUBLE_EQ(r.recall[1], 0.0);
    EXPECT_DOUBLE_EQ(r.f1[1], 0.0);
}

TEST(MetricsTest, SizeMismatchThrows) {
    EXPECT_THROW(evaluate_classification({0, 1}, {0}), std::invalid_argument);
    EXPECT_THROW(evaluate_classification({}, {}), std::invalid_argument);
}

TEST(MetricsTest, NegativeLabelThrows) {
    EXPECT_THROW(evaluate_classification({0, -1}, {0, 1}), std::invalid_argument);
    EXPECT_THROW(evaluate_classification({0, 1}, {-1, 1}), std::invalid_argument);
}

TEST(MetricsTest, ReportStringContainsNames) {
    const std::vector<int> y{0, 1, 0, 1};
    const auto r = evaluate_classification(y, y);
    const std::string s = r.str({"LOS", "NLOS"});
    EXPECT_NE(s.find("LOS"), std::string::npos);
    EXPECT_NE(s.find("NLOS"), std::string::npos);
    EXPECT_NE(s.find("accuracy"), std::string::npos);
}

}  // namespace
}  // namespace locble::ml
