#include "codec/rd_model.h"

#include <gtest/gtest.h>

#include <cmath>

#include "simd/vmath.h"

namespace rave::codec {
namespace {

video::RawFrame MakeFrame(double spatial = 1.0, double temporal = 0.5,
                          video::Resolution res = {1280, 720}) {
  video::RawFrame f;
  f.resolution = res;
  f.spatial_complexity = spatial;
  f.temporal_complexity = temporal;
  return f;
}

TEST(QpQscaleTest, KnownAnchors) {
  // x264: QP 12 -> qscale 0.85; +6 QP doubles qscale.
  EXPECT_NEAR(QpToQscale(12.0), 0.85, 1e-12);
  EXPECT_NEAR(QpToQscale(18.0), 1.70, 1e-12);
  EXPECT_NEAR(QpToQscale(24.0), 3.40, 1e-12);
}

TEST(QpQscaleTest, RoundTrip) {
  for (double qp = kMinQp; qp <= kMaxQp; qp += 0.5) {
    EXPECT_NEAR(QscaleToQp(QpToQscale(qp)), qp, 1e-9);
  }
}

class RdMonotonicityTest : public ::testing::TestWithParam<FrameType> {};

TEST_P(RdMonotonicityTest, BitsDecreaseWithQscale) {
  RdModel model({}, Rng(1));
  const video::RawFrame frame = MakeFrame();
  int64_t prev = std::numeric_limits<int64_t>::max();
  for (double qp = kMinQp; qp <= kMaxQp; qp += 1.0) {
    const int64_t bits =
        model.ExpectedBits(GetParam(), frame, QpToQscale(qp)).bits();
    EXPECT_LE(bits, prev) << "qp=" << qp;
    prev = bits;
  }
}

TEST_P(RdMonotonicityTest, BitsIncreaseWithComplexity) {
  RdModel model({}, Rng(1));
  const double qscale = QpToQscale(26);
  int64_t prev = 0;
  for (double c = 0.2; c <= 3.0; c += 0.2) {
    const video::RawFrame frame = MakeFrame(c, c);
    const int64_t bits = model.ExpectedBits(GetParam(), frame, qscale).bits();
    EXPECT_GE(bits, prev) << "complexity=" << c;
    prev = bits;
  }
}

TEST_P(RdMonotonicityTest, BitsScaleWithPixels) {
  RdModel model({}, Rng(1));
  const double qscale = QpToQscale(26);
  const int64_t bits_720 =
      model.ExpectedBits(GetParam(), MakeFrame(1.0, 0.5, {1280, 720}), qscale)
          .bits();
  const int64_t bits_360 =
      model.ExpectedBits(GetParam(), MakeFrame(1.0, 0.5, {640, 360}), qscale)
          .bits();
  EXPECT_NEAR(static_cast<double>(bits_720) / bits_360, 4.0, 0.01);
}

INSTANTIATE_TEST_SUITE_P(AllFrameTypes, RdMonotonicityTest,
                         ::testing::Values(FrameType::kKey, FrameType::kDelta));

TEST(RdModelTest, KeyFramesCostMoreThanDeltaAtSameQp) {
  RdModel model({}, Rng(1));
  const video::RawFrame frame = MakeFrame(1.0, 0.35);
  const double qscale = QpToQscale(28);
  EXPECT_GT(model.ExpectedBits(FrameType::kKey, frame, qscale).bits(),
            3 * model.ExpectedBits(FrameType::kDelta, frame, qscale).bits());
}

TEST(RdModelTest, InversionHitsTarget) {
  RdModel model({}, Rng(1));
  const video::RawFrame frame = MakeFrame();
  for (int64_t target : {20'000, 50'000, 150'000, 400'000}) {
    const double qscale =
        model.QscaleForBits(FrameType::kDelta, frame, DataSize::Bits(target));
    const int64_t bits =
        model.ExpectedBits(FrameType::kDelta, frame, qscale).bits();
    EXPECT_NEAR(static_cast<double>(bits), static_cast<double>(target),
                0.02 * static_cast<double>(target))
        << "target=" << target;
  }
}

TEST(RdModelTest, InversionClampsToQpRange) {
  RdModel model({}, Rng(1));
  const video::RawFrame frame = MakeFrame();
  // Absurdly small target -> max QP.
  const double hi =
      model.QscaleForBits(FrameType::kKey, frame, DataSize::Bits(10));
  EXPECT_NEAR(QscaleToQp(hi), kMaxQp, 1e-9);
  // Absurdly large target -> min QP.
  const double lo = model.QscaleForBits(FrameType::kKey, frame,
                                        DataSize::Bits(1'000'000'000));
  EXPECT_NEAR(QscaleToQp(lo), kMinQp, 1e-9);
}

TEST(RdModelTest, MinFrameBitsFloor) {
  RdModelConfig config;
  config.min_frame_bits = 1500;
  RdModel model(config, Rng(1));
  const video::RawFrame tiny = MakeFrame(0.001, 0.0001, {64, 64});
  EXPECT_GE(
      model.ExpectedBits(FrameType::kDelta, tiny, QpToQscale(kMaxQp)).bits(),
      1500);
}

TEST(RdModelTest, ActualBitsNoisyButUnbiased) {
  RdModel model({}, Rng(7));
  const video::RawFrame frame = MakeFrame();
  const double qscale = QpToQscale(26);
  const double expected = static_cast<double>(
      model.ExpectedBits(FrameType::kDelta, frame, qscale).bits());
  double sum = 0.0;
  bool saw_different = false;
  const int n = 20'000;
  for (int i = 0; i < n; ++i) {
    const double actual = static_cast<double>(
        model.ActualBits(FrameType::kDelta, frame, qscale).bits());
    if (std::abs(actual - expected) > 1.0) saw_different = true;
    sum += actual;
  }
  EXPECT_TRUE(saw_different);
  // Lognormal with sigma=0.08 has mean exp(sigma^2/2) ~ 1.0032 x median.
  EXPECT_NEAR(sum / n / expected, 1.0032, 0.01);
}

TEST(QualityTest, SsimDecreasesWithQp) {
  RdModel model({}, Rng(1));
  const video::RawFrame frame = MakeFrame();
  double prev = 1.1;
  for (double qp = kMinQp; qp <= kMaxQp; qp += 1.0) {
    const double ssim = model.Ssim(frame, QpToQscale(qp));
    EXPECT_LT(ssim, prev);
    EXPECT_GE(ssim, 0.0);
    EXPECT_LE(ssim, 1.0);
    prev = ssim;
  }
}

TEST(QualityTest, SsimPlausibleAtTypicalOperatingPoint) {
  RdModel model({}, Rng(1));
  const double ssim = model.Ssim(MakeFrame(1.0, 0.5), QpToQscale(28));
  EXPECT_GT(ssim, 0.90);
  EXPECT_LT(ssim, 0.99);
}

TEST(QualityTest, PsnrDecreasesWithQp) {
  RdModel model({}, Rng(1));
  const video::RawFrame frame = MakeFrame();
  EXPECT_GT(model.Psnr(frame, 20), model.Psnr(frame, 30));
  EXPECT_GT(model.Psnr(frame, 30), model.Psnr(frame, 45));
}

TEST(BitPredictorTest, ConvergesToTrueCoefficient) {
  RdModel model({}, Rng(3));
  BitPredictor pred(/*gamma=*/1.2, /*initial_coef=*/0.3);
  const video::RawFrame frame = MakeFrame();
  const double cplx = 1280.0 * 720.0 * frame.temporal_complexity;
  for (int i = 0; i < 100; ++i) {
    const double qscale = QpToQscale(20 + (i % 15));
    const DataSize actual = model.ActualBits(FrameType::kDelta, frame, qscale);
    pred.Update(cplx, qscale, actual);
  }
  // After convergence, predictions should be within ~15% of the truth.
  const double qscale = QpToQscale(27);
  const double predicted =
      static_cast<double>(pred.Predict(cplx, qscale).bits());
  const double truth = static_cast<double>(
      model.ExpectedBits(FrameType::kDelta, frame, qscale).bits());
  EXPECT_NEAR(predicted / truth, 1.0, 0.15);
}

TEST(BitPredictorTest, InversionMatchesPrediction) {
  BitPredictor pred(/*gamma=*/1.2, /*initial_coef=*/1.0);
  const double cplx = 1e6 * 0.5;
  const DataSize target = DataSize::Bits(40'000);
  const double qscale = pred.QscaleForBits(cplx, target);
  EXPECT_NEAR(static_cast<double>(pred.Predict(cplx, qscale).bits()),
              static_cast<double>(target.bits()),
              0.02 * static_cast<double>(target.bits()));
}

TEST(BitPredictorTest, ReusesTheModelsPowerOnlyWhenGammaMatches) {
  RdModel model({}, Rng(5));
  const video::RawFrame frame = MakeFrame();
  const double cplx = 1280.0 * 720.0 * frame.temporal_complexity;
  BitPredictor recomputed(/*gamma=*/1.2);
  BitPredictor reused(/*gamma=*/1.2);
  BitPredictor other_gamma(/*gamma=*/1.2);
  for (int i = 0; i < 20; ++i) {
    const double qscale = QpToQscale(18 + i);
    double qscale_pow = 0.0;
    const DataSize bits =
        model.ActualBits(FrameType::kDelta, frame, qscale, &qscale_pow);
    ASSERT_EQ(qscale_pow, simd::PowS(qscale, model.Gamma(FrameType::kDelta)));
    recomputed.Update(cplx, qscale, bits);
    reused.Update(cplx, qscale, bits, qscale_pow, /*pow_gamma=*/1.2);
    // A power taken with another gamma must not be used.
    other_gamma.Update(cplx, qscale, bits, 2.0 * qscale_pow,
                       /*pow_gamma=*/0.9);
  }
  EXPECT_EQ(reused.coef(), recomputed.coef());
  EXPECT_EQ(other_gamma.coef(), recomputed.coef());
}

TEST(BitPredictorTest, IgnoresDegenerateObservations) {
  BitPredictor pred(1.2, 1.0);
  pred.Update(0.0, 5.0, DataSize::Bits(100));
  pred.Update(1e6, -1.0, DataSize::Bits(100));
  pred.Update(1e6, 5.0, DataSize::Zero());
  EXPECT_DOUBLE_EQ(pred.coef(), 1.0);
}

}  // namespace
}  // namespace rave::codec
