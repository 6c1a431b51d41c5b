package orbit

import (
	"testing"
	"time"
)

func BenchmarkPositionECEFCircular(b *testing.B) {
	e := CircularLEO(PaperAltitudeM, PaperInclinationDeg, 60, 120)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.PositionECEF(time.Duration(i) * time.Second)
	}
}

func BenchmarkPositionECEFEccentric(b *testing.B) {
	e := Elements{SemiMajorAxisM: 7000e3, Eccentricity: 0.1, InclinationRad: 0.9}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.PositionECEF(time.Duration(i) * time.Second)
	}
}

func BenchmarkGenerateSheetFullDay(b *testing.B) {
	e := CircularLEO(PaperAltitudeM, PaperInclinationDeg, 0, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := GenerateSheet("S", e, Day, DefaultSampleInterval); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableIICatalog(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := PaperConstellation(MaxPaperSatellites); err != nil {
			b.Fatal(err)
		}
	}
}
