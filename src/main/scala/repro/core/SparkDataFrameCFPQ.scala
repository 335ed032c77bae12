package repro.core

import scala.collection.mutable.ListBuffer
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions.{broadcast, col}
import org.apache.spark.storage.StorageLevel
import repro.cfg.CnfGrammar
import repro.graph.LabeledGraph

/** Algorithm 1 expressed in pure relational (Catalyst) terms.
  *
  * The set-valued matrix `T` is the relation `T(nt, src, dst)` — exactly
  * the paper's "A ∈ T[i,j]" as rows. `T₀` is [[MatrixInit]]'s cells (already
  * distinct), as for every other engine. One closure step `T ← T ∪ (T·T)` is:
  *
  * {{{
  *   T' = T ∪ π_{a, l.src, r.dst}(
  *          T l ⋈_{l.dst = r.src} T r ⋈_{(l.nt, r.nt) = (b, c)} rules(a, b, c))
  * }}}
  *
  * followed by DISTINCT — the relational reading of the Boolean matrix
  * multiply-and-union. Iterated to fixpoint: the relation is monotone, so
  * a nonterminal's row count grows by the cells a step added to it, and no
  * growth means no change.
  *
  * This is the engine whose output is checked against the DuckDB oracle.
  *
  * Each iteration's rows are persisted and counted per nonterminal in the
  * one job that fills the cache, and the next frame is rebuilt over them,
  * not taken from `Dataset.localCheckpoint()`. A local checkpoint truncates
  * lineage but *carries over* the optimized plan's statistics into the
  * resulting `LogicalRDD`; in this iterated self-join those `sizeInBytes`
  * estimates compound multiplicatively (iteration k's plan multiplies
  * iteration k−1's several times), so the BigInt estimate grows to ~3^k
  * digits and Catalyst ends up spending minutes multiplying million-digit
  * integers (observed on the wine graph at ~12 iterations). A frame over an
  * RDD starts from default statistics every time.
  */
final class SparkDataFrameCFPQ(spark: SparkSession) extends CFPQEngine {
  import SparkDataFrameCFPQ._
  override val name = "SparkDF"

  override def solve(graph: LabeledGraph, grammar: CnfGrammar): CFPQResult = {
    import spark.implicits._
    val t0 = MatrixInit.cells(graph, grammar).toSeq
      .flatMap { case (nt, pairs) => pairs.map { case (s, d) => (nt, s, d) } }
      .toDF("nt", "src", "dst")
    val rules = broadcast(grammar.binary.toDF("a", "b", "c"))
    val cached = ListBuffer.empty[RDD[Row]]
    try {
      val ((t, counts), added) = Closure.run(pin(t0.rdd, cached))(_._1.unpersist(blocking = false)) { case (rows, counts) =>
        val next @ (_, nextCounts) = pin(step(spark.createDataset(rows)(t0.encoder), rules).rdd, cached)
        (next, nextCounts.map { case (nt, n) => nt -> (n - counts.getOrElse(nt, 0L)) })
      }
      Relation.requireFits("T (all nonterminals)", counts.values.sum)
      val rels = t.collect().groupMap(_.getString(0))(r => Relation.pack(r.getInt(1), r.getInt(2)))
      CFPQResult(rels.map { case (nt, cs) => nt -> Relation(cs) }, added.length, added)
    } finally cached.filter(_.getStorageLevel != StorageLevel.NONE).foreach(_.unpersist(blocking = false))
  }
}

object SparkDataFrameCFPQ {

  /** Persists `rows`, marks them with RDD `localCheckpoint()` and counts them
    * (one cell each) per nonterminal in the job that fills the cache and cuts
    * their lineage: partition counts, summed after `collect()`, no shuffle.
    * `rows` go into `cached` first, so a failed count unpersists them.
    */
  private[repro] def pin(rows: RDD[Row], cached: ListBuffer[RDD[Row]]): (RDD[Row], Map[String, Long]) = {
    cached += rows.persist(StorageLevel.MEMORY_AND_DISK).localCheckpoint()
    val counts = rows.mapPartitions(_.map(_.getString(0)).toSeq.groupMapReduce(identity)(_ => 1L)(_ + _).iterator)
    (rows, counts.collect().groupMapReduce(_._1)(_._2)(_ + _))
  }

  /** The Catalyst step: `T ∪ π_{a, l.src, r.dst}(T l ⋈ rules ⋈ T r)`, distinct. */
  private[repro] def step(t: DataFrame, rules: DataFrame): DataFrame = {
    val (l, r) = (t.as("l"), t.as("r"))
    val prod = l
      .join(rules, col("l.nt") === col("b"))
      .join(r, col("l.dst") === col("r.src") && col("r.nt") === col("c"))
      .select(col("a").as("nt"), col("l.src").as("src"), col("r.dst").as("dst"))
    t.union(prod).distinct()
  }
}
