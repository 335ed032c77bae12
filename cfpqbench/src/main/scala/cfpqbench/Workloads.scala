package cfpqbench

import org.apache.spark.sql.SparkSession
import repro.baseline.{GllCFPQ, HellingsCFPQ}
import repro.bench.TableRunner
import repro.bench.TableRunner.Query
import repro.core._
import repro.data.{DatasetSpec, Datasets}

/** One engine under test; `key` names its metrics (`<key>_ms`, `<key>.jobs`).
  *
  * @param spark  runs its closure as Spark jobs (few, long solves a run)
  * @param matrix an Algorithm 1 engine: its iteration count is fixed by
  *               the closure and must agree across matrix engines
  */
final case class Engine(key: String, spark: Boolean, matrix: Boolean, engine: CFPQEngine)

object Engine {
  val SparkBlockSize = 1024

  /** Every engine, in the order a run times them. */
  def all(spark: SparkSession, q: Query): Seq[Engine] = Seq(
    Engine("sparse_csr", spark = false, matrix = true, SparseCFPQ),
    Engine("dense", spark = false, matrix = true, DenseCFPQ),
    Engine("hellings", spark = false, matrix = false, HellingsCFPQ),
    Engine("gll", spark = false, matrix = false, new GllCFPQ(q.grammar, q.start)),
    Engine("spark_block", spark = true, matrix = true, new SparkBlockCFPQ(spark, SparkBlockSize)),
    Engine("spark_df", spark = true, matrix = true, new SparkDataFrameCFPQ(spark)),
  )
}

/** What the workload's query returns on the dataset's own graph. */
final case class Expected(nodes: Int, edges: Int, iterations: Int, start: Fingerprint)

/** A query × graph pair of the benchmark. All engines run on every workload. */
final case class Workload(name: String, dataset: DatasetSpec, query: Query, expected: Expected) {

  /** The input graph of `seed`: the dataset's own graph at the dataset's
    * seed, a seeded renaming of it at any other seed.
    */
  def relabel(seed: Long): Relabel =
    if (seed == dataset.seed) Relabel.identity(expected.nodes)
    else Relabel.seeded(expected.nodes, seed)
}

object Workloads {

  val all: Seq[Workload] = Seq(
    Workload("q1-funding", Datasets.funding, TableRunner.q1,
      Expected(310, 2172, 12, Fingerprint(16570L, 0xe36d24702c32049cL))),
    Workload("q2-g3", Datasets.g3, TableRunner.q2,
      Expected(4480, 31680, 10, Fingerprint(13304L, 0xdc2069da628a3129L))),
  )

  def byName(name: String): Option[Workload] = all.find(_.name == name)
}
